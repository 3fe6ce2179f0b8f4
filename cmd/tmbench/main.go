// Command tmbench prints the experiment tables of DESIGN.md's
// per-experiment index, and the microscopes over single runs (trace, rmr,
// check), from the registry in internal/exp:
//
//	tmbench -exp e1 -tms irtm,tl2 -ms 4,8,16,32 -adversary
//	tmbench -exp all        # every table with default parameters
//	tmbench -h              # every experiment with the flags it reads
//
// An unknown -exp or -clock value exits non-zero and lists the valid
// names; so does -exp check on a history that is not opaque.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/exp"
)

func main() {
	def := exp.DefaultParams()
	var (
		expName   = flag.String("exp", "all", "experiment: "+strings.Join(exp.Names(), ", "))
		tms       = flag.String("tms", strings.Join(def.TMs, ","), "comma-separated TM algorithms")
		locks     = flag.String("locks", strings.Join(def.Locks, ","), "comma-separated lock algorithms")
		models    = flag.String("models", strings.Join(def.Models, ","), "comma-separated cache models")
		ms        = flag.String("ms", csv(def.Ms), "comma-separated read-set sizes")
		ns        = flag.String("ns", csv(def.Ns), "comma-separated process counts")
		k         = flag.Int("k", def.K, "acquisitions per process (e3, e4, rmr)")
		seed      = flag.Int64("seed", def.Seed, "workload and scheduling seed")
		adversary = flag.Bool("adversary", false, "run e1/e2 against the Lemma-2 adversary")
		file      = flag.String("file", "", "history JSON for -exp check (default: stdin)")
	)
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintln(out, "usage: tmbench -exp NAME [flags]; each experiment reads the flags listed beside it")
		for _, e := range exp.All() {
			fmt.Fprintf(out, "  -exp %-6s %-32s %s\n", e.Name, e.Uses, e.Title)
		}
		fmt.Fprintln(out, "  -exp all    every table above that is part of the default sweep")
		flag.PrintDefaults()
	}
	flag.Parse()

	p := exp.Params{
		TMs: split(*tms), Locks: split(*locks), Models: split(*models),
		Ms: ints(*ms), Ns: ints(*ns), K: *k, Seed: *seed, Adversary: *adversary,
		In: os.Stdin,
	}
	// Fail fast on a bad -clock spec regardless of -exp: a fat-fingered
	// pipeline name must not surface only after the earlier tables ran.
	for _, spec := range split(*e8Clocks) {
		if _, ok := e8Variants[spec]; !ok {
			fatal(fmt.Errorf("unknown clock spec %q (valid: %s)", spec, strings.Join(validClockSpecs, ", ")))
		}
	}
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		p.In = f
	}
	if err := exp.Run(os.Stdout, *expName, p); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tmbench:", err)
	os.Exit(1)
}

func split(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func csv(ns []int) string {
	return strings.Trim(strings.ReplaceAll(fmt.Sprint(ns), " ", ","), "[]")
}

func ints(s string) []int {
	var out []int
	for _, p := range split(s) {
		n, err := strconv.Atoi(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmbench: bad integer %q\n", p)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}
