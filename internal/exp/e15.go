package exp

// E15 is the producer/consumer pipeline scenario: a bounded FIFO queue
// modeled on the t-object array, producers pushing a fixed quota of items
// and consumers draining them. It is the coordination shape the E-series
// lacks: E5–E14 transactions are independent workloads racing over shared
// data, while here the transactions ARE the coordination — a producer's
// commit is the only thing that unblocks a consumer, and queue-full
// backpressure the only thing that stops a producer. The simulator's Txn
// API has no Retry, so blocked parties poll: a producer finding the queue
// full (or a consumer finding it empty) commits a read-only probe and
// tries again — with randomized exponential spacing (the pacer, the E5
// idiom), because an unpaced probe stream is itself a conflict source
// under visible-read TMs — and the Full/EmptyPolls columns price that
// polling per TM.
// The native counterpart is BenchmarkE15Pipeline over stm.Queue, where
// Retry replaces polling with composable blocking — the comparison the
// paper's STM-programming-model argument wants.
//
// Object layout: 0 = head index, 1 = element count, 2..2+Cap-1 = slots,
// 2+Cap = consumed total, 3+Cap = consumed checksum.

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/tm"
)

// E15Row is one TM's pipeline measurement.
type E15Row struct {
	TM           string
	Producers    int
	Consumers    int
	Produced     int
	Consumed     int
	FullPolls    int // producer attempts that found the queue full
	EmptyPolls   int // consumer attempts that found the queue empty
	Aborts       int
	StepsPerItem float64
	Space        int
}

// E15Config parameterizes the pipeline scenario.
type E15Config struct {
	Producers        int
	Consumers        int
	ItemsPerProducer int
	QueueCap         int
	Seed             int64
}

// DefaultE15Config is the configuration used by tmbench and the tests: a
// queue much smaller than the item flow, so both backpressure (full
// polls) and starvation (empty polls) occur on every run.
func DefaultE15Config() E15Config {
	return E15Config{
		Producers:        4,
		Consumers:        4,
		ItemsPerProducer: 12,
		QueueCap:         3,
		Seed:             42,
	}
}

var (
	errE15Full  = fmt.Errorf("e15: queue full")
	errE15Empty = fmt.Errorf("e15: queue empty")
	errE15Done  = fmt.Errorf("e15: pipeline drained")
)

// RunE15 runs the pipeline scenario for one TM and cross-checks the
// result: every produced item must be consumed exactly once (count and
// checksum), or the run errors.
func RunE15(name string, cfg E15Config) (E15Row, error) {
	procs := cfg.Producers + cfg.Consumers
	target := uint64(cfg.Producers) * uint64(cfg.ItemsPerProducer)
	const (
		objHead  = 0
		objCount = 1
		objSlot0 = 2
	)
	objTotal := objSlot0 + cfg.QueueCap
	objSum := objTotal + 1
	// Paced: polling needs it as much as abort-retry does. Under a
	// visible-read TM a consumer's empty-probe read of the count object
	// is itself a conflict, and unpaced probes abort every producer
	// mid-put forever.
	sc, err := newScenario("e15 "+name, name, procs, cfg.QueueCap+4, cfg.Seed, true)
	if err != nil {
		return E15Row{}, err
	}
	var prod, cons tally
	var fullPolls, emptyPolls int
	var producedSum uint64
	for i := 0; i < cfg.Producers; i++ {
		sc.spawn(i, 69621, func(p *memory.Proc, rng *splitMix) {
			for n := 0; n < cfg.ItemsPerProducer; n++ {
				v := rng.next()%1000 + 1
				put := func(tx tm.Txn) error {
					cnt, err := tx.Read(objCount)
					if err != nil {
						return err
					}
					if int(cnt) == cfg.QueueCap {
						return errE15Full
					}
					head, err := tx.Read(objHead)
					if err != nil {
						return err
					}
					slot := objSlot0 + (int(head)+int(cnt))%cfg.QueueCap
					if err := tx.Write(slot, v); err != nil {
						return err
					}
					return tx.Write(objCount, cnt+1)
				}
				// One streak per item: full polls and aborts both lengthen it.
				pace := sc.pacer(p, rng)
				for sc.retry(p, &prod, pace, put, errE15Full) != nil {
					fullPolls++ // backpressure: probe again later
					pace.wait()
				}
				producedSum += v
			}
		})
	}
	for i := 0; i < cfg.Consumers; i++ {
		// Process ids continue after the producers'; the multiplier differs
		// so the consumers' streams are their own.
		sc.spawn(cfg.Producers+i, 28411, func(p *memory.Proc, rng *splitMix) {
			take := func(tx tm.Txn) error {
				total, err := tx.Read(objTotal)
				if err != nil {
					return err
				}
				if total == target {
					return errE15Done
				}
				cnt, err := tx.Read(objCount)
				if err != nil {
					return err
				}
				if cnt == 0 {
					return errE15Empty
				}
				head, err := tx.Read(objHead)
				if err != nil {
					return err
				}
				v, err := tx.Read(objSlot0 + int(head)%cfg.QueueCap)
				if err != nil {
					return err
				}
				if err := tx.Write(objHead, (head+1)%uint64(cfg.QueueCap)); err != nil {
					return err
				}
				if err := tx.Write(objCount, cnt-1); err != nil {
					return err
				}
				if err := tx.Write(objTotal, total+1); err != nil {
					return err
				}
				sum, err := tx.Read(objSum)
				if err != nil {
					return err
				}
				return tx.Write(objSum, sum+v)
			}
			// A consumer's streak runs until it takes an item.
			pace := sc.pacer(p, rng)
			for {
				switch sc.retry(p, &cons, pace, take, errE15Done, errE15Empty) {
				case errE15Done:
					return
				case errE15Empty:
					emptyPolls++ // starvation: probe again later
					pace.wait()
				default:
					pace.failures = 0
				}
			}
		})
	}
	if err := sc.run(); err != nil {
		return E15Row{}, err
	}
	row := E15Row{
		TM: name, Producers: cfg.Producers, Consumers: cfg.Consumers,
		Produced: prod.commits, Consumed: cons.commits,
		FullPolls: fullPolls, EmptyPolls: emptyPolls, Aborts: prod.aborts + cons.aborts,
		StepsPerItem: perCommit(sc.mem.TotalSteps(), cons.commits),
		Space:        sc.space(),
	}
	// Every item flows through exactly once: counts and checksum agree.
	if prod.commits != int(target) || cons.commits != int(target) {
		return E15Row{}, fmt.Errorf("exp: e15 %s: produced %d, consumed %d, want %d each", name, prod.commits, cons.commits, target)
	}
	var finalSum uint64
	err = sc.verify(func(tx tm.Txn) (err error) {
		finalSum, err = tx.Read(objSum)
		return err
	})
	if err != nil {
		return E15Row{}, err
	}
	if finalSum != producedSum {
		return E15Row{}, fmt.Errorf("exp: e15 %s: consumed checksum %d, want %d — an item was lost or duplicated", name, finalSum, producedSum)
	}
	return row, nil
}

func init() {
	registerPerTM(Experiment{Name: "e15", Artifact: "Pipeline (producer/consumer)", Native: "BenchmarkE15Pipeline", Uses: "-tms -seed",
		Title: "E15 — pipeline: producers/consumers over a bounded transactional queue"},
		withVariants, []string{"tm", "prod", "cons", "produced", "consumed", "full-polls",
			"empty-polls", "aborts", "steps/item", "space"},
		func(t *Table, p Params, name string) error {
			cfg := DefaultE15Config()
			cfg.Seed = p.Seed
			row, err := RunE15(name, cfg)
			if err != nil {
				return err
			}
			t.Add(row.TM, row.Producers, row.Consumers, row.Produced, row.Consumed,
				row.FullPolls, row.EmptyPolls, row.Aborts, row.StepsPerItem, row.Space)
			return nil
		})
}
