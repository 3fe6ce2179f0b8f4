// validationcost: the Theorem 3 demo. Prints where each TM algorithm sits
// in the theorem's hypothesis space, then runs a read-only transaction of
// m reads on the instrumented simulator — solo, and against the Lemma-2
// adversary — and prints the reader's step counts next to the theorem's
// m(m−1)/2 prediction, showing
//
//   - the invisible-read weak-DAP TMs (irtm, dstm) paying exactly the
//     quadratic validation bill,
//   - TL2 paying it in abort-restarts instead of validation,
//   - NOrec paying it in value revalidation, and
//   - the TMs that violate a hypothesis of the theorem (visible reads,
//     multi-versioning, blocking) staying linear.
//
// Run with: go run ./examples/validationcost
package main

import (
	"fmt"
	"log"
	"os"

	ptm "repro"
)

func main() {
	p := ptm.DefaultParams()
	p.Ms = []int{4, 8, 16, 32, 64, 128}

	fmt.Println("Theorem 3(1): a read-only transaction of m reads in an opaque,")
	fmt.Println("weak-DAP, weak-invisible-read progressive TM performs Ω(m²) steps.")
	fmt.Println()
	// The taxonomy, both E1 modes (blocking TMs cannot face the adversary
	// and are skipped with a note), then the tightness check: irtm matches
	// the closed form m(m-1)/2 + 3m step for step.
	for _, run := range []struct {
		exp       string
		adversary bool
	}{{"class", false}, {"e1", false}, {"e1", true}, {"e6", false}} {
		p.Adversary = run.adversary
		if err := ptm.RunExperiment(os.Stdout, run.exp, p); err != nil {
			log.Fatal(err)
		}
	}
}
