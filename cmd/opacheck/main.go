// Command opacheck verifies a recorded TM history (JSON) against the
// paper's correctness and progress definitions: strict serializability,
// opacity, progressiveness and the single-item case of strong
// progressiveness.
//
// Histories come from two recorders that share the format: the simulator's
// tm.Record wrapper, and the native engines' test-only trace hook
// (internal/enginekit/trace.go), which records every
// Atomically/AtomicallyRO attempt — read-only fast path included — as the
// same internal/tm.History, so
// native traces dumped as JSON (see TestTraceHistoryJSONRoundTrip) are
// checked with exactly this tool.
//
// Usage:
//
//	opacheck [-file history.json]        # default: stdin
//	opacheck -demo                       # print an example history and exit
//
// The JSON format is the natural encoding of internal/tm.History:
//
//	{"Txns": [{"ID": 0, "Proc": 0, "StartSeq": 0, "EndSeq": 3, "Status": 1,
//	           "Ops": [{"Seq": 1, "Kind": 1, "Obj": 0, "Value": 5},
//	                   {"Seq": 2, "Kind": 2}]}]}
//
// Kind: 0=read, 1=write, 2=tryCommit, 3=abort. Status: 0=live,
// 1=committed, 2=aborted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/check"
	"repro/internal/tm"
)

func main() {
	var (
		file = flag.String("file", "", "history JSON file (default: stdin)")
		demo = flag.Bool("demo", false, "print an example history JSON and exit")
	)
	flag.Parse()

	if *demo {
		printDemo()
		return
	}
	var r io.Reader = os.Stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	data, err := io.ReadAll(r)
	if err != nil {
		fatal(err)
	}
	var h tm.History
	if err := json.Unmarshal(data, &h); err != nil {
		fatal(fmt.Errorf("parsing history: %w", err))
	}
	fmt.Print(h.String())

	ss := check.StrictlySerializable(&h)
	fmt.Printf("strictly serializable: %v", ss.OK)
	if ss.OK {
		fmt.Printf("  (witness order %v)", ss.Order)
	}
	fmt.Println()

	op := check.Opaque(&h)
	fmt.Printf("opaque:                %v", op.OK)
	if op.OK {
		fmt.Printf("  (witness order %v)", op.Order)
	}
	fmt.Println()

	pv := check.Progressive(&h)
	fmt.Printf("progressive:           %v", len(pv) == 0)
	if len(pv) > 0 {
		fmt.Printf("  (violations: %v)", pv)
	}
	fmt.Println()

	sv := check.StronglyProgressive(&h)
	fmt.Printf("strongly progressive:  %v", len(sv) == 0)
	if len(sv) > 0 {
		fmt.Printf("  (violations: %+v)", sv)
	}
	fmt.Println()

	if !ss.OK || !op.OK {
		os.Exit(1)
	}
}

func printDemo() {
	h := tm.History{Txns: []*tm.TxnRecord{
		{ID: 0, Proc: 0, StartSeq: 0, EndSeq: 3, Status: tm.TxnCommitted, Ops: []tm.Op{
			{Seq: 1, Kind: tm.OpWrite, Obj: 0, Value: 5},
			{Seq: 3, Kind: tm.OpTryCommit},
		}},
		{ID: 1, Proc: 1, StartSeq: 4, EndSeq: 6, Status: tm.TxnCommitted, Ops: []tm.Op{
			{Seq: 5, Kind: tm.OpRead, Obj: 0, Value: 5},
			{Seq: 6, Kind: tm.OpTryCommit},
		}},
	}}
	out, err := json.MarshalIndent(&h, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "opacheck:", err)
	os.Exit(1)
}
