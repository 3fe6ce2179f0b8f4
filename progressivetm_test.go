package progressivetm_test

import (
	"io"
	"strings"
	"testing"

	ptm "repro"
)

// TestFacadeEndToEnd drives the whole public surface once: build a memory,
// run a recorded transactional workload under the scheduler, check the
// history, and run the paper constructions.
func TestFacadeEndToEnd(t *testing.T) {
	mem := ptm.NewMemory(2, "cc-wb")
	if mem == nil {
		t.Fatal("NewMemory returned nil for a valid model")
	}
	tmi, err := ptm.NewTM("irtm", mem, 4)
	if err != nil {
		t.Fatal(err)
	}
	rec := ptm.Record(tmi)
	s := ptm.NewScheduler(mem)
	for i := 0; i < 2; i++ {
		i := i
		s.Go(i, func(p *ptm.Proc) {
			for n := 0; n < 3; n++ {
				_ = ptm.Atomically(rec, p, func(tx ptm.Txn) error {
					v, err := tx.Read(i)
					if err != nil {
						return err
					}
					return tx.Write((i+1)%4, v+1)
				})
			}
		})
	}
	if err := s.Run(ptm.RandomPolicy(3)); err != nil {
		t.Fatal(err)
	}
	h := rec.History()
	if !ptm.IsStrictlySerializable(h) {
		t.Fatalf("history not strictly serializable:\n%s", h)
	}
	if !ptm.IsOpaque(h) {
		t.Fatalf("history not opaque:\n%s", h)
	}
	if v := ptm.ProgressivenessViolations(h); len(v) != 0 {
		t.Fatalf("progressiveness violations: %v", v)
	}
	if mem.TotalRMRs() == 0 {
		t.Error("no RMRs recorded under cc-wb")
	}
}

// TestFacadeRunExperiment runs every registered experiment through the
// facade at a tiny Params and expects a table on the writer: the facade
// reads the same registry tmbench does, so an experiment cannot be
// registered and left unreachable here. What each table must say is
// pinned, across all TMs, by internal/exp's own suites.
func TestFacadeRunExperiment(t *testing.T) {
	p := ptm.DefaultParams()
	p.TMs, p.Locks, p.Models = []string{"tl2", "mvtm-gc"}, []string{"lm:irtm", "mcs"}, []string{"cc-wb"}
	p.Ms, p.Ns, p.K = []int{4}, []int{2}, 2
	p.In = strings.NewReader(`{"Txns": [{"ID": 0, "Status": 1, "EndSeq": 2, "Ops": [{"Seq": 1, "Kind": 1, "Value": 5}, {"Seq": 2, "Kind": 2}]}]}`)
	for _, e := range ptm.Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			var out strings.Builder
			if err := ptm.RunExperiment(&out, e.Name, p); err != nil {
				t.Fatal(err)
			}
			if strings.Count(out.String(), "\n") < 4 { // title, header, rule, a row
				t.Errorf("no table printed:\n%s", out.String())
			}
		})
	}
	if err := ptm.RunExperiment(io.Discard, "e99", p); err == nil || !strings.Contains(err.Error(), "e15") {
		t.Errorf("unknown experiment: err = %v, want the valid names", err)
	}
}

func TestFacadeRegistries(t *testing.T) {
	algos := ptm.Algorithms()
	if len(algos) < 8 {
		t.Fatalf("Algorithms() = %v, want at least the 8 built-ins", algos)
	}
	for _, want := range []string{"irtm", "tl2", "norec", "vrtm", "sgltm", "mvtm", "dstm", "tml"} {
		found := false
		for _, a := range algos {
			if a == want {
				found = true
			}
		}
		if !found {
			t.Errorf("algorithm %q missing from registry", want)
		}
	}
	if got := ptm.CacheModels(); len(got) != 3 {
		t.Fatalf("CacheModels() = %v, want 3 models", got)
	}
	locks := ptm.Locks()
	hasLM := false
	for _, l := range locks {
		if strings.HasPrefix(l, "lm:") {
			hasLM = true
		}
	}
	if !hasLM {
		t.Fatalf("Locks() = %v, missing lm:* entries", locks)
	}
	if ptm.NewMemory(2, "bogus") != nil {
		t.Error("NewMemory accepted a bogus model")
	}
	if _, err := ptm.NewTM("bogus", ptm.NewMemory(1, ""), 1); err == nil {
		t.Error("NewTM accepted a bogus algorithm")
	}
}

// TestFacadePaperConstructions runs Lemma 2 and Claim 4 through the facade.
func TestFacadePaperConstructions(t *testing.T) {
	res, err := ptm.Lemma2("irtm", 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("Lemma 2 read aborted on irtm")
	}
	out, err := ptm.Claim4("irtm", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() == "" {
		t.Fatal("Claim4 outcome unprintable")
	}
}

// TestFacadeLM builds Algorithm 1 through the facade and exercises it.
func TestFacadeLM(t *testing.T) {
	mem := ptm.NewMemory(3, "dsm")
	tmi, err := ptm.NewTM("norec", mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	lock := ptm.NewLM(mem, tmi)
	s := ptm.NewScheduler(mem)
	inCS := 0
	for i := 0; i < 3; i++ {
		s.Go(i, func(p *ptm.Proc) {
			for j := 0; j < 3; j++ {
				lock.Enter(p)
				inCS++
				if inCS != 1 {
					t.Errorf("mutual exclusion violated")
				}
				inCS--
				lock.Exit(p)
			}
		})
	}
	if err := s.Run(ptm.RandomPolicy(9)); err != nil {
		t.Fatal(err)
	}
}
