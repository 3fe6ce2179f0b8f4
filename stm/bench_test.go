package stm_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/stm"
)

// BenchmarkVarReadOnly measures invisible-read scaling of the native TL2
// engine: read-only transactions over a shared read-mostly working set.
// With pooled descriptors this must report zero allocs/op in steady state.
func BenchmarkVarReadOnly(b *testing.B) {
	const n = 32
	vars := make([]*stm.Var[int], n)
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = stm.Atomically(func(tx *stm.Tx) error {
				s := 0
				for _, v := range vars {
					s += v.Get(tx)
				}
				_ = s
				return nil
			})
		}
	})
}

// BenchmarkROFastPath is the acceptance benchmark for the read-only fast
// path: the identical read-only workload (a 32-Var scan) on the default
// pipeline and on AtomicallyRO. Both must report 0 allocs/op; the RO path
// must be faster — it skips the write-set probe, the duplicate-suppression
// scan and the read-set append on every read, and certifies instead of
// validating at commit.
func BenchmarkROFastPath(b *testing.B) {
	const n = 32
	vars := make([]*stm.Var[int], n)
	for i := range vars {
		vars[i] = stm.NewVar(i)
	}
	scan := func(tx *stm.Tx) error {
		s := 0
		for _, v := range vars {
			s += v.Get(tx)
		}
		_ = s
		return nil
	}
	run := func(b *testing.B, atomically func(func(tx *stm.Tx) error) error) {
		before := stm.ReadStats()
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				_ = atomically(scan)
			}
		})
		d := stm.ReadStats().Sub(before)
		if d.Commits > 0 {
			b.ReportMetric(float64(d.ROCommits)/float64(d.Commits), "ro-commit-fraction")
		}
	}
	b.Run("path=default", func(b *testing.B) { run(b, stm.Atomically) })
	b.Run("path=ro", func(b *testing.B) { run(b, stm.AtomicallyRO) })
}

// BenchmarkVarUncontended measures the single-threaded transaction
// round-trip (begin, read, write, commit).
func BenchmarkVarUncontended(b *testing.B) {
	v := stm.NewVar(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = stm.Atomically(func(tx *stm.Tx) error {
			v.Set(tx, v.Get(tx)+1)
			return nil
		})
	}
	if v.Load() != b.N {
		b.Fatal("lost updates")
	}
}

// BenchmarkContentionSweep sweeps goroutine counts over a 90/10 read/write
// mix on a shared working set: the contention-scaling trajectory of the
// commit path (versioned-lock CAS, validation, backoff) at each level of
// parallelism.
func BenchmarkContentionSweep(b *testing.B) {
	const nvars = 64
	const readsPerTxn = 8
	for _, workers := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("goroutines=%d", workers), func(b *testing.B) {
			vars := make([]*stm.Var[int], nvars)
			for i := range vars {
				vars[i] = stm.NewVar(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > uint64(b.N) {
							return
						}
						base := (i * 2654435761) % nvars
						if i%10 == 0 {
							// Read-modify-write transaction.
							_ = stm.Atomically(func(tx *stm.Tx) error {
								v := vars[base]
								v.Set(tx, v.Get(tx)+1)
								return nil
							})
						} else {
							// Read-only transaction over a sliding window.
							_ = stm.Atomically(func(tx *stm.Tx) error {
								s := 0
								for j := uint64(0); j < readsPerTxn; j++ {
									s += vars[(base+j)%nvars].Get(tx)
								}
								_ = s
								return nil
							})
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkVarContended is the stale-clock stress: transactions read a
// window of Vars with a scheduler yield after each read (modeling real
// in-transaction work, and forcing commit interleavings even on few
// cores), while a fraction of transactions write. Under the PR 1 pipeline
// (gv1, no extension) every commit that lands inside a reader's window
// aborts the reader if it touches any Var the reader will still read;
// with timestamp extension only invalidated reads abort. The sub-benchmark
// labels pin both configurations so the abort-ratio and throughput delta
// is recorded per run.
func BenchmarkVarContended(b *testing.B) {
	const (
		nvars      = 64
		readsPerTx = 8
	)
	run := func(b *testing.B, strat stm.ClockStrategy, ext bool) {
		// Enable-before-select: GV6/GV7 refuse selection while extension is
		// off, so the enabling knob always moves first.
		if ext {
			stm.SetTimestampExtension(true)
			stm.SetClockStrategy(strat)
		} else {
			stm.SetClockStrategy(strat)
			stm.SetTimestampExtension(ext)
		}
		defer stm.SetClockStrategy(stm.GV4)
		defer stm.SetTimestampExtension(true)
		// Vars are created after the strategy is selected — required for the
		// tictoc row, which reinterprets the lock-word payload as (wts, rts)
		// and must never see versioned payloads.
		vars := make([]*stm.Var[int], nvars)
		for i := range vars {
			vars[i] = stm.NewVar(0)
		}
		var seq atomic.Uint64
		before := stm.ReadStats()
		b.ReportAllocs()
		b.SetParallelism(4)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := seq.Add(1)
				base := (i * 2654435761) % nvars
				if i%8 == 0 {
					_ = stm.Atomically(func(tx *stm.Tx) error {
						v := vars[base]
						v.Set(tx, v.Get(tx)+1)
						return nil
					})
				} else {
					_ = stm.Atomically(func(tx *stm.Tx) error {
						s := 0
						for j := uint64(0); j < readsPerTx; j++ {
							s += vars[(base+j*7)%nvars].Get(tx)
							runtime.Gosched() // in-transaction work: commits land mid-window
						}
						_ = s
						return nil
					})
				}
			}
		})
		d := stm.ReadStats().Sub(before)
		b.ReportMetric(d.AbortRatio(), "abort-ratio")
		if d.Commits > 0 {
			b.ReportMetric(float64(d.Extensions)/float64(d.Commits), "extensions/txn")
		}
	}
	b.Run("pipeline=pr1-gv1-noext", func(b *testing.B) { run(b, stm.GV1, false) })
	b.Run("pipeline=gv4-ext", func(b *testing.B) { run(b, stm.GV4, true) })
	b.Run("pipeline=gv7-ext", func(b *testing.B) { run(b, stm.GV7, true) })
	b.Run("pipeline=tictoc", func(b *testing.B) { run(b, stm.TicToc, true) })
}

// BenchmarkLargeWriteSet measures commits whose write sets cross the
// slice→map promotion threshold: per-op cost of the map index, the one
// commit-time sort, and the bulk lock/publish/unlock sweep.
func BenchmarkLargeWriteSet(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("writes=%d", n), func(b *testing.B) {
			vars := make([]*stm.Var[int], n)
			for i := range vars {
				vars[i] = stm.NewVar(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = stm.Atomically(func(tx *stm.Tx) error {
					for _, v := range vars {
						v.Set(tx, i)
					}
					return nil
				})
			}
		})
	}
}

// BenchmarkMapMixed measures the transactional map under a parallel
// 90/10 read/write mix across many buckets.
func BenchmarkMapMixed(b *testing.B) {
	m := stm.NewMap[int](64)
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("key%d", i)
		_ = stm.Atomically(func(tx *stm.Tx) error {
			m.Put(tx, k, i)
			return nil
		})
	}
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%d", i)
	}
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			k := keys[(i*2654435761)%256]
			if i%10 == 0 {
				_ = stm.Atomically(func(tx *stm.Tx) error {
					m.Put(tx, k, int(i))
					return nil
				})
			} else {
				_ = stm.Atomically(func(tx *stm.Tx) error {
					_, _ = m.Get(tx, k)
					return nil
				})
			}
		}
	})
}

// BenchmarkMapDisjointPut is the regression benchmark for the striped size
// counter: parallel writers alternate insert/delete over fully disjoint
// key sets — every operation changes the map's size, so every operation
// goes through a size stripe — landing on distinct buckets and distinct
// stripes, so throughput must scale with GOMAXPROCS instead of
// serializing every size change on one shared size Var (the pre-striping
// behaviour made every concurrent Put/Delete pair conflict). The
// abort-ratio metric makes the serialization visible when it returns.
func BenchmarkMapDisjointPut(b *testing.B) {
	m := stm.NewMap[int](1024)
	var worker atomic.Uint64
	before := stm.ReadStats()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		w := worker.Add(1)
		keys := make([]string, 512)
		for i := range keys {
			keys[i] = fmt.Sprintf("w%d-%d", w, i)
		}
		for i := 0; pb.Next(); i++ {
			k := keys[(i/2)%len(keys)]
			if i%2 == 0 {
				_ = stm.Atomically(func(tx *stm.Tx) error {
					m.Put(tx, k, i) // insert: the key is absent, so size changes
					return nil
				})
			} else {
				_ = stm.Atomically(func(tx *stm.Tx) error {
					m.Delete(tx, k)
					return nil
				})
			}
		}
	})
	d := stm.ReadStats().Sub(before)
	b.ReportMetric(d.AbortRatio(), "abort-ratio")
}

// BenchmarkOrderedMapMixed is the native E9 ordered-index workload on the
// container itself: lookups and ordered range scans racing point updates
// on a transactional skiplist. Range scans build long read sets over
// pointer structure — the regime where timestamp extension pays — so the
// abort-ratio and extensions/txn metrics here move far more than on the
// flat-counter benchmarks.
func BenchmarkOrderedMapMixed(b *testing.B) {
	const nkeys = 512
	for _, scan := range []int{8, 64} {
		b.Run(fmt.Sprintf("scan=%d", scan), func(b *testing.B) {
			m := stm.NewOrderedMap[int]()
			keys := make([]string, nkeys)
			if err := stm.Atomically(func(tx *stm.Tx) error {
				for i := range keys {
					keys[i] = fmt.Sprintf("key%04d", i)
					m.Put(tx, keys[i], i)
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			var seq atomic.Uint64
			before := stm.ReadStats()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					base := (i * 2654435761) % nkeys
					switch {
					case i%10 == 0: // point update racing the scans
						_ = stm.Atomically(func(tx *stm.Tx) error {
							v, _ := m.Get(tx, keys[base])
							m.Put(tx, keys[base], v+1)
							return nil
						})
					case i%10 < 4: // ordered range scan: the long read set
						from := keys[base]
						_ = stm.Atomically(func(tx *stm.Tx) error {
							n, s := 0, 0
							m.Range(tx, from, "", func(_ string, v int) bool {
								s += v
								n++
								return n < scan
							})
							_ = s
							return nil
						})
					default: // point lookup
						_ = stm.Atomically(func(tx *stm.Tx) error {
							_, _ = m.Get(tx, keys[base])
							return nil
						})
					}
				}
			})
			d := stm.ReadStats().Sub(before)
			b.ReportMetric(d.AbortRatio(), "abort-ratio")
			if d.Commits > 0 {
				b.ReportMetric(float64(d.Extensions)/float64(d.Commits), "extensions/txn")
			}
		})
	}
}

// BenchmarkOrderedMapDisjointPut mirrors BenchmarkMapDisjointPut on the
// skiplist: parallel writers alternate insert/delete over disjoint key
// ranges. Unlike the hash map's independent buckets, neighbouring skiplist
// keys share links, so this also measures structural-conflict pressure.
func BenchmarkOrderedMapDisjointPut(b *testing.B) {
	m := stm.NewOrderedMap[int]()
	var worker atomic.Uint64
	before := stm.ReadStats()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		w := worker.Add(1)
		keys := make([]string, 256)
		for i := range keys {
			keys[i] = fmt.Sprintf("w%02d-%04d", w, i)
		}
		for i := 0; pb.Next(); i++ {
			k := keys[(i/2)%len(keys)]
			if i%2 == 0 {
				_ = stm.Atomically(func(tx *stm.Tx) error {
					m.Put(tx, k, i)
					return nil
				})
			} else {
				_ = stm.Atomically(func(tx *stm.Tx) error {
					m.Delete(tx, k)
					return nil
				})
			}
		}
	})
	d := stm.ReadStats().Sub(before)
	b.ReportMetric(d.AbortRatio(), "abort-ratio")
}

// BenchmarkOrderedMapFootprint records the space half of the container's
// cost — heap bytes and heap objects per stored key at serve_point's key
// and value shapes, strings included — so the BENCH_*.json trajectory
// carries it beside ns/op. Hardware-free, like allocs/op.
func BenchmarkOrderedMapFootprint(b *testing.B) {
	var bytes, objects float64
	for i := 0; i < b.N; i++ {
		bytes, objects = stm.OrderedMapFootprint(20_000)
	}
	b.ReportMetric(bytes, "B/key")
	b.ReportMetric(objects, "objects/key")
}

// BenchmarkOrderedMapSnapshotRange measures the non-transactional ordered
// scan against the transactional one: the snapshot path never enters the
// engine, so it must be allocation-free and abort-free no matter how hot
// the writers are.
func BenchmarkOrderedMapSnapshotRange(b *testing.B) {
	const nkeys = 1024
	m := stm.NewOrderedMap[int]()
	if err := stm.Atomically(func(tx *stm.Tx) error {
		for i := 0; i < nkeys; i++ {
			m.Put(tx, fmt.Sprintf("key%05d", i), i)
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := 0
			m.SnapshotRange("key00256", "key00512", func(string, int) bool {
				n++
				return true
			})
			if n != 256 {
				b.Fatalf("scan saw %d entries, want 256", n)
			}
		}
	})
}

// BenchmarkQueueHandoff measures producer/consumer pairs over the blocking
// bounded queue.
func BenchmarkQueueHandoff(b *testing.B) {
	q := stm.NewQueue[int](64)
	b.ReportAllocs()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			_ = stm.Atomically(func(tx *stm.Tx) error {
				q.Take(tx)
				return nil
			})
		}
	}()
	for i := 0; i < b.N; i++ {
		_ = stm.Atomically(func(tx *stm.Tx) error {
			q.Put(tx, i)
			return nil
		})
	}
	<-done
}
