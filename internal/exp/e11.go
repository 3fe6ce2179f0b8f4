package exp

// E11 is the long-scan / HTAP scenario: analytical read transactions —
// long ordered scans over a contiguous window and multi-key aggregates —
// racing a pool of point writers. It is the workload class where every
// single-version TM is structurally wrong: an invisible-read scan must
// certify each read against a moving clock (paying the Theorem-3
// validation steps, or an abort and a full replay on the RO fast path),
// while a multi-version TM pins a snapshot and walks version chains — no
// validation, no read-side aborts, at the price of the space the chains
// occupy. The table makes the paper's time/space trade legible in one
// row pair: compare tl2's ReadAborts and StepsPerTxn against mvtm's
// zeros, then compare their Space columns; mvtm (no GC) against mvtm-gc
// shows what the epoch GC buys back. The native counterpart is
// BenchmarkE11NativeScan (repro/stm vs repro/stm/mvstm on identical
// workloads).
type E11Row struct {
	TM         string
	ROHint     bool // read transactions were declared read-only (and the TM applied it)
	Procs      int
	Commits    int
	Aborts     int
	ReadAborts int // aborted attempts of read-only (scan/aggregate) transactions
	AbortRatio float64
	// StepsPerTxn is all steps per committed transaction; ScanSteps is
	// the steps of a scan's committed attempt alone, the quantity Theorem
	// 3 bounds from below for single-version invisible-read TMs.
	StepsPerTxn float64
	ScanSteps   float64
	// Space counts live base objects as in E5: for multi-version TMs the
	// dead version nodes are subtracted, so mvtm vs mvtm-gc shows chain
	// growth vs GC truncation.
	Space int
}

// E11Config parameterizes the long-scan scenario.
type E11Config struct {
	Procs       int
	TxnsPerProc int     // committed transactions each process must complete
	Objects     int     // t-objects (the scanned table)
	ScanLen     int     // contiguous objects per long scan
	AggKeys     int     // keys read by a multi-key aggregate
	WriteRatio  float64 // fraction of transactions that are point RMWs
	ScanRatio   float64 // fraction of *read* transactions that are long scans
	DeclareRO   bool    // declare read transactions via tm.ReadOnlyHinter
	Seed        int64
}

// DefaultE11Config is the configuration used by benchmarks and tmbench:
// scans cover half the table, so a scan outlives several writer commits,
// and the writer pool is heavy enough that the mvtm vs mvtm-gc space
// delta (unbounded chains vs epoch truncation) is visible in the table.
func DefaultE11Config() E11Config {
	return E11Config{
		Procs:       8,
		TxnsPerProc: 16,
		Objects:     48,
		ScanLen:     24,
		AggKeys:     4,
		WriteRatio:  0.5,
		ScanRatio:   0.5,
		DeclareRO:   true,
		Seed:        42,
	}
}

// RunE11 runs the long-scan scenario for one TM. As in E5/E9/E10, every
// process retries each transaction until it commits, so Commits is fixed
// by the config; Aborts measures wasted attempts and ReadAborts the
// subset wasted on read-only transactions — zero for the multi-version
// TMs, which is the point of keeping versions.
func RunE11(name string, cfg E11Config) (E11Row, error) {
	r, err := runServing("e11", name, servingMix{
		procs: cfg.Procs, txnsPerProc: cfg.TxnsPerProc, objects: cfg.Objects,
		getKeys: cfg.AggKeys, scanLen: cfg.ScanLen, writeRatio: cfg.WriteRatio, scanRatio: cfg.ScanRatio,
		declareRO: cfg.DeclareRO, seed: cfg.Seed, seedMul: 48271,
		pick: func(rng *splitMix) int { return int(rng.next() % uint64(cfg.Objects)) }, // uniform keys
	})
	if err != nil {
		return E11Row{}, err
	}
	all := r.all()
	return E11Row{
		TM: name, ROHint: r.roHint, Procs: cfg.Procs,
		Commits: all.commits, Aborts: all.aborts, ReadAborts: r.scans.aborts + r.gets.aborts,
		AbortRatio:  all.abortRatio(),
		StepsPerTxn: perCommit(r.steps, all.commits),
		ScanSteps:   perCommit(r.scans.useful, r.scans.commits),
		Space:       r.space,
	}, nil
}

func init() {
	registerPerTM(Experiment{Name: "e11", Artifact: "Long scans / HTAP (the time/space trade)", Native: "BenchmarkE11Native", Uses: "-tms -seed",
		Title: "E11 — HTAP long scans: ordered scans + multi-key aggregates vs a writer pool"},
		withVariants, []string{"tm", "ro", "commits", "aborts", "read-aborts", "abort-ratio", "steps/txn", "scan-steps", "space"},
		func(t *Table, p Params, name string) error {
			cfg := DefaultE11Config()
			cfg.Seed = p.Seed
			row, err := RunE11(name, cfg)
			if err != nil {
				return err
			}
			t.Add(row.TM, row.ROHint, row.Commits, row.Aborts, row.ReadAborts,
				row.AbortRatio, row.StepsPerTxn, row.ScanSteps, row.Space)
			return nil
		})
}
