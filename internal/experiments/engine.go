package experiments

// The engine extensions: random access over the bound spine (E17), the plan
// cache (E19), delta-binding (E20), batched probe kernels (E22), snapshots
// (E24), and the gated benchmarks that pin them.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/graphs"
	"repro/internal/logic"
	"repro/internal/logic/logictest"
	"repro/internal/plan"
	"repro/internal/snapshot"
)

// pathXYZ self-joins one random graph of n edges over n/2 nodes (the serving
// benchmark's edge shape), so both parts keep about n rows after reduction.
var pathXYZ = logictest.MustParseCQ("Q(x,y,z) :- A(x,y), A(y,z).")

func pathDB(n int) *database.Database { return randomDB(rand.New(rand.NewSource(17)), n, n/2, "A") }

// boundWeights binds q and runs the counting pass over the bound spine.
func boundWeights(db *database.Database, q *logic.CQ) (*cq.OdometerCore, *cq.SpineWeights, error) {
	bound, err := cq.PrepareConstantDelay(db, q, nil)
	if err != nil {
		return nil, nil, err
	}
	w, err := cq.NewSpineWeights(bound, nil)
	return bound, w, err
}

var e17 = Experiment{
	ID: "E17", Title: "Extension: random access and random-order enumeration for free-connex ACQs ([23], §4.3)",
	Tables: []Table{{
		Bench: "E17RandomAccess", Param: "n",
		Intro: []string{"random access into φ(D) for free-connex Q(x,y,z) :- A(x,y), B(y,z):",
			"bind once (linear), one counting pass over the bound spine, then Get(i) in O(‖φ‖·log‖D‖)"},
		Cols:  []string{"n:8", "answers:10", "bindTime:12", "countPass:12", "avgGet(1k):14", "seek+scan64(1k):16", "vs skip-enumerate:18"},
		Sizes: sizes([]int{1 << 12, 1 << 14, 1 << 16}, []int{1 << 10, 1 << 12}, []int{1 << 12, 1 << 14}),
		Setup: func(r *Run) Sweep {
			rng := r.Rand(13)
			return Sweep{Build: func(n int) ([]Op, Row, error) {
				db := chainDB(n)
				bound, w, err := boundWeights(db, chainXYZ)
				if err != nil {
					return nil, nil, err
				}
				ra, od, total := bound.RandomAccess(w, nil), bound.Cursor(nil), int64(w.Total())
				return []Op{
						{Name: "Bind", Do: func(ctr) (any, error) { return cq.PrepareConstantDelay(db, chainXYZ, nil) }},
						{Name: "CountPass", Do: func(ctr) (any, error) { return cq.NewSpineWeights(bound, nil) }},
						{Name: "Get", Reps: 1000, Do: func(ctr) (any, error) { return ra.GetInt(rng.Int63n(total)) }},
						// A page as qservd serves it: one seek, then 64 constant-delay moves.
						{Name: "SeekScan64", Reps: 1000, Do: func(ctr) (any, error) {
							od.Seek(w, uint64(rng.Int63n(total)))
							for k := 0; k < 64; k++ {
								if _, ok := od.Next(); !ok {
									break
								}
							}
							return nil, nil
						}},
						// Baseline: reach the middle index by constant-delay moves alone.
						{Name: "SkipEnumerate", NoBench: true, Do: func(ctr) (any, error) {
							e := bound.Cursor(nil)
							for i := int64(0); i <= total/2; i++ {
								e.Next()
							}
							return nil, nil
						}},
					}, func(m []Measured) ([]any, error) {
						return []any{n, total, m[0].Wall, m[1].Wall, m[2].Wall / 1000, m[3].Wall / 1000, m[4].Wall}, nil
					}, nil
			}}
		},
	}, {
		// The one counting pass over an already bound core that serves
		// Count, random access and page seeks.
		Bench: "SpineWeights", Param: "n", Sizes: sizes(nil, nil, []int{1 << 13, 1 << 16}),
		Setup: each(func(r *Run, n int) ([]Op, Row, error) {
			bound, err := cq.PrepareConstantDelay(pathDB(n), pathXYZ, nil)
			return []Op{{Do: func(ctr) (any, error) { return cq.NewSpineWeights(bound, nil) }}}, nil, err
		}),
	}, {
		// One deep page: a seek into the last quarter of the answers, then 64
		// constant-delay moves. Pinned at 0 allocs/op.
		Bench: "PageSeek", Sizes: sizes(nil, nil, []int{1 << 16}),
		Setup: each(func(r *Run, n int) ([]Op, Row, error) {
			bound, w, err := boundWeights(pathDB(n), pathXYZ)
			if err != nil {
				return nil, nil, err
			}
			od, deep, span, i := bound.Cursor(nil), w.Total()*3/4, w.Total()/4-64, uint64(0)
			od.Seek(w, deep)
			return []Op{run("", func() error {
				od.Seek(w, deep+i*7919%span)
				i++
				for k := 0; k < 64; k++ {
					if _, ok := od.Next(); !ok {
						return fmt.Errorf("page ran off the end")
					}
				}
				return nil
			})}, nil, nil
		}),
	}},
	Shape: []string{"shape: Get and seek+scan stay ~flat (log factor) while skip-enumeration to index n/2",
		"grows linearly — the random-access/random-order regime of [23]; a 64-answer page costs",
		"about one Get plus 64 constant-delay moves, not 64 Gets."},
}

var e19 = Experiment{
	ID: "E19", Title: "Extension: Compile → Bind → Execute amortization — bind once, execute N times through the plan cache",
	Tables: []Table{{
		Cols:  []string{"n:8", "answers:10", "oneshot(all):14", "cached(all):14", "speedup:9.2", "warmExec(avg):14"},
		Sizes: sizes([]int{1 << 12, 1 << 14, 1 << 16}, []int{1 << 10, 1 << 12}, nil),
		Setup: func(r *Run) Sweep {
			reps, cache := max(r.Repeat, 1), plan.NewCache()
			r.Printf("free-connex Q(x,y) :- A(x,y), B(y,z): %d enumerations, one-shot vs plan cache\n", reps)
			r.Printf("(one-shot pays classification + join tree + semijoin reduction + index build on\n")
			r.Printf("every run; the cached plan pays them once in Bind and then only walks cursors)\n")
			return Sweep{Build: func(n int) ([]Op, Row, error) {
				db := chainDB(n)
				const warmRuns = 16
				return []Op{
						// Every run re-does the full Compile → Bind → Execute chain.
						{Label: "oneshot", Reps: reps, Do: func(c ctr) (any, error) {
							p, err := plan.Compile(chainXY)
							if err != nil {
								return nil, err
							}
							pr, err := p.BindCounted(db, c)
							if err != nil {
								return nil, err
							}
							return drained(c)(pr.Enumerate(c))
						}},
						// The first run binds; the rest probe the cache and walk a fresh cursor.
						{Label: "cached", Reps: reps, Do: func(c ctr) (any, error) {
							p, err := cache.Compile(chainXY)
							if err != nil {
								return nil, err
							}
							pr, err := cache.PreparePlan(p, db, c)
							if err != nil {
								return nil, err
							}
							return drained(c)(pr.Enumerate(c))
						}},
						// Warm executions alone, without the cold Bind above.
						{Reps: warmRuns, Do: func(ctr) (any, error) { return nil, warmExecute(cache, db, drain) }},
					}, func(m []Measured) ([]any, error) {
						if m[1].Value != m[0].Value {
							return nil, fmt.Errorf("cached plan disagrees: %d vs %d answers", m[1].Value, m[0].Value)
						}
						warm := m[2].Wall / warmRuns
						r.RecordAt(n, "oneshot_ns", m[0].Wall.Nanoseconds(), "cached_ns", m[1].Wall.Nanoseconds(), "warm_exec_ns", warm.Nanoseconds())
						return []any{n, m[0].Value, m[0].Wall, m[1].Wall, ratio(m[0].Wall, m[1].Wall), warm}, nil
					}, nil
			}, After: func() error {
				hits, misses := cache.Stats()
				r.Printf("plan cache: %d hits, %d misses (one cold bind per database)\n", hits, misses)
				r.Record("cache_hits", hits)
				r.Record("cache_misses", misses)
				return nil
			}}
		},
	}, {
		// The warm-path contract. A cold bind pays classification, join tree,
		// semijoin reduction and index builds; a warm probe is a fingerprint
		// fold, two map lookups and a generation check — 0 allocs/op, gated
		// at 0% tolerance in CI; warm+execute adds a fresh cursor walk.
		Bench: "PlanCacheBind", Sizes: sizes(nil, nil, []int{1 << 14}),
		Setup: each(func(r *Run, n int) ([]Op, Row, error) {
			db, cache := chainDB(n), plan.NewCache()
			_, err := cache.Prepare(chainXY, db)
			return []Op{
				run("cold", func() error {
					p, err := plan.Compile(chainXY)
					if err == nil {
						_, err = p.Bind(db)
					}
					return err
				}),
				run("warm", func() error {
					pr, err := cache.Prepare(chainXY, db)
					if err != nil {
						return err
					}
					if ok, err := pr.Decide(nil); err != nil || !ok {
						return fmt.Errorf("warm decide: %v, %v", ok, err)
					}
					return nil
				}),
				run("warm+execute", func() error {
					return warmExecute(cache, db, func(e delay.Enumerator, _ ctr) int { return len(delay.Collect(e)) })
				}),
			}, nil, err
		}),
	}, {
		// A cold bind pays only for the relations its statement reads: compile,
		// bind and decide a never-seen neq2 statement (bench/'s cold_bind
		// shape) over a 2^11-row edge/label pair, beside a 2^16-row unrelated
		// pair and, as the control, without it. Nothing reads the unrelated
		// pair, so the two rows should cost the same allocs/op.
		Bench: "ColdBind", Param: "unrelated", Sizes: sizes(nil, nil, []int{0, 1 << 16}),
		Setup: each(func(r *Run, n int) ([]Op, Row, error) {
			db := coldDB(n)
			return []Op{run("cold", func() error {
				p, err := plan.Compile(coldNeq2)
				if err != nil {
					return err
				}
				pr, err := p.Bind(db)
				if err != nil {
					return err
				}
				if ok, err := pr.Decide(nil); err != nil || !ok {
					return fmt.Errorf("cold decide: %v, %v", ok, err)
				}
				return nil
			})}, nil, nil
		}),
	}},
	Shape: []string{"shape: speedup approaches the preprocess/execute time ratio as N grows — the",
		"bind work (join tree, reduction, indexes) is amortized across executions while",
		"each execution keeps the engine's delay guarantee."},
}

// coldNeq2 is bench/'s neq2 shape over the cold pair.
var coldNeq2 = logictest.MustParseCQ("Q(x,y) :- edge_c(x,y), label_c(y), x != y.")

// coldDB draws bench/'s cold pair (2^11 edges, labels a quarter of them, both
// over [1, 2^10]) and, when unrelated > 0, an edge/label pair of that many
// edges in the same proportions that no cold statement reads.
func coldDB(unrelated int) *database.Database {
	rng := rand.New(rand.NewSource(41))
	db := database.NewDatabase()
	add := func(edge, label string, n int) {
		db.AddRelation(graphs.RandomRelation(rng, edge, 2, n, n/2))
		db.AddRelation(graphs.RandomRelation(rng, label, 1, n/4, n/2))
	}
	add("edge_c", "label_c", 1<<11)
	if unrelated > 0 {
		add("edge", "label", unrelated)
	}
	return db
}

// warmExecute probes the cache for the chain statement and walks a fresh
// cursor over its bound spine.
func warmExecute(cache *plan.Cache, db *database.Database, consume func(delay.Enumerator, ctr) int) error {
	pr, err := cache.Prepare(chainXY, db)
	if err != nil {
		return err
	}
	e, err := pr.Enumerate(nil)
	if err == nil {
		consume(e, nil)
	}
	return err
}

var e20 = Experiment{
	ID: "E20", Title: "Extension: delta-binding — steady-state single-tuple updates via Refresh vs the full re-Bind cliff",
	Tables: []Table{{
		Intro: []string{"free-connex Q(x,y) :- A(x,y), B(y,z): single-tuple inserts and deletes against",
			"a warm statement — Refresh patches the bound spine (reduced sets, row buckets,",
			"slabs) in place; the cliff re-runs the full Bind preprocessing per update."},
		Cols:  []string{"n:8", "answers:10", "updates:9", "refresh(avg):14", "rebind(avg):14", "cliff:9.1", "maxDelay:10"},
		Sizes: sizes([]int{1 << 14, 1 << 17}, []int{1 << 10, 1 << 12}, nil),
		Setup: func(r *Run) Sweep {
			updates, rebinds := r.Pick(256, 64, 0), r.Pick(32, 8, 0)
			return Sweep{Build: func(n int) ([]Op, Row, error) {
				db, pr, err := warmStatement(chainXY, n)
				if err != nil {
					return nil, nil, err
				}
				a, p := db.Relation("A"), pr.Plan()
				// Only the Refresh and the Bind are timed, not the mutations.
				var refreshTotal, rebindTotal time.Duration
				i, j := 0, 0
				return []Op{
						// Steady state: a fresh insert, then its delete, refreshing after each.
						{Name: "refresh", Reps: updates, Do: func(ctr) (any, error) {
							k := i &^ 1 // the insert this step makes or undoes
							tp := database.Tuple{database.Value(n + 1 + k/2), database.Value(k % 199)}
							if i%2 == 0 {
								a.Insert(tp)
							} else {
								a.Delete(tp)
							}
							i++
							t0 := time.Now()
							kind, err := pr.Refresh(nil)
							refreshTotal += time.Since(t0)
							if err == nil && kind != plan.RefreshDelta {
								err = fmt.Errorf("update %d fell off the delta path (%v)", i-1, kind)
							}
							return nil, err
						}},
						// The cliff: the same kind of mutation, caught up with a full Bind.
						{Name: "rebind", Reps: rebinds, Do: func(ctr) (any, error) {
							chainInsert(a, 2*n-1, j)
							j++
							t0 := time.Now()
							cold, err := p.Bind(db)
							rebindTotal += time.Since(t0)
							if err == nil && cold.Stale() {
								err = fmt.Errorf("fresh bind is already stale")
							}
							return nil, err
						}},
						// The refreshed spine vs a fresh bind of the same final database:
						// delta patches may not degrade the per-output delay.
						{Label: "refreshed", Enum: func(c ctr) (delay.Enumerator, error) {
							if _, err := pr.Refresh(nil); err != nil {
								return nil, err
							}
							return pr.Enumerate(c)
						}},
						{Label: "fresh", Enum: func(c ctr) (delay.Enumerator, error) {
							fresh, err := p.Bind(db)
							if err != nil {
								return nil, err
							}
							return fresh.Enumerate(c)
						}},
					}, func(m []Measured) ([]any, error) {
						ref, fresh := m[2], m[3]
						if ref.Outputs != fresh.Outputs {
							return nil, fmt.Errorf("refreshed statement has %d answers, fresh bind %d", ref.Outputs, fresh.Outputs)
						}
						if ref.MaxDelaySteps != fresh.MaxDelaySteps {
							return nil, fmt.Errorf("per-output delay changed after refresh: %d steps vs fresh %d", ref.MaxDelaySteps, fresh.MaxDelaySteps)
						}
						refresh, rebind := refreshTotal/time.Duration(updates), rebindTotal/time.Duration(rebinds)
						r.RecordAt(n, "refresh_ns", refresh.Nanoseconds(), "rebind_ns", rebind.Nanoseconds(),
							"cliff_ratio", ratio(rebind, refresh), "max_delay_steps", ref.MaxDelaySteps)
						return []any{n, ref.Outputs, updates, refresh, rebind, ratio(rebind, refresh), ref.MaxDelaySteps}, nil
					}, nil
			}}
		},
	}, {
		// The delta-binding contract. cold is the full Bind; refresh is an
		// insert caught up by Refresh on a warm statement — absorbed in place
		// until the refresher's budget is spent, and the rebind that follows
		// is part of the price, so it is timed and counted (rebinds/op);
		// rebind pays the same insert with a fresh Bind.
		Bench: "PreparedRefresh", Sizes: sizes(nil, nil, []int{1 << 14}),
		Setup: each(func(r *Run, n int) ([]Op, Row, error) {
			db, pr, err := warmStatement(chainXY, n)
			if err != nil {
				return nil, nil, err
			}
			pristine, p, i, rebinds := chainDB(n), pr.Plan(), 0, 0
			insert := func(db *database.Database) {
				chainInsert(db.Relation("A"), n, i)
				i++
			}
			refresh := run("refresh", func() error {
				insert(db)
				kind, err := pr.Refresh(nil)
				if err == nil && kind == plan.RefreshNoop {
					err = fmt.Errorf("refresh %d was a no-op", i-1)
				}
				if kind == plan.RefreshRebind {
					rebinds++
				}
				return err
			})
			refresh.Metric = func() (string, float64) { return "rebinds/op", float64(rebinds) }
			return []Op{
				run("cold", func() error { _, err := p.Bind(pristine); return err }),
				refresh,
				run("rebind", func() error { insert(pristine); _, err := p.Bind(pristine); return err }),
			}, nil, nil
		}),
	}, {
		// The read-after-write unit of a churn workload: an insert, a delta
		// refresh, and the count retaken over the patched spine.
		Bench: "CountAfterRefresh", Sizes: sizes(nil, nil, []int{1 << 14}),
		Setup: each(func(r *Run, n int) ([]Op, Row, error) {
			db, pr, err := warmStatement(chainXYZ, n)
			if err != nil {
				return nil, nil, err
			}
			a, i := db.Relation("A"), 0
			return []Op{run("", func() error {
				chainInsert(a, n, i)
				i++
				if kind, err := pr.Refresh(nil); err != nil || kind != plan.RefreshDelta {
					return fmt.Errorf("refresh: %v, %v", kind, err)
				}
				_, err := pr.Count(nil)
				return err
			})}, nil, nil
		}),
	}},
	Shape: []string{"shape: refresh(avg) stays in the microseconds while rebind(avg) grows linearly",
		"with n, so the cliff ratio widens with the database; maxDelay certifies the",
		"refreshed spine enumerates with the same per-output step bound as a fresh bind."},
}

// kernelShapes is one relation pair per key distribution: the E5 chain (tiny
// shared domain, long equal-key runs), the E12 random instance (near-unique
// keys), and the tree-query edges of the retired E18 (the row keeps its
// label, a key of BENCH_E22.json).
func kernelShapes(rng *rand.Rand, n int) []kernelShape {
	chain := chainDB(n)
	return []kernelShape{
		{"E5_chain", chain.Relation("A"), chain.Relation("B"), []int{1}, []int{0}},
		{"E12_random", graphs.RandomRelation(rng, "R", 2, n, n/2), graphs.RandomRelation(rng, "S", 2, n, n/2), []int{1}, []int{0}},
		{"E18_tree", graphs.RandomRelation(rng, "E1", 2, n, n/2), graphs.RandomRelation(rng, "E2", 2, n, n/2), []int{0}, []int{0}},
	}
}

type kernelShape struct {
	name         string
	r, s         *database.Relation
	rCols, sCols []int
}

// warmAvg is an op reporting the average wall time of f over reps warm
// runs. One untimed call first puts index and flat-table builds outside
// the measurement (steady state is what the batch kernels optimize); a
// forced collection before each rep makes every kernel pay for exactly its
// own garbage — without it whichever runs second absorbs the other's debt.
func warmAvg(reps int, f func() *database.Relation) Op {
	return Op{Do: func(ctr) (any, error) {
		f()
		var total time.Duration
		for i := 0; i < reps; i++ {
			runtime.GC()
			t0 := time.Now()
			out := f()
			total += time.Since(t0)
			runtime.KeepAlive(out)
		}
		return total / time.Duration(reps), nil
	}}
}

var e22 = Experiment{
	ID: "E22", Title: "Extension: vectorized batch probes — scalar vs batched semijoin/join kernels, counted steps bit-identical",
	Tables: []Table{{
		Cols:  []string{"shape:12", "survivors:10", "sjScalar:14", "sjBatch:14", "speedup:9.2", "joinScalar:14", "joinBatch:14", "speedup:9.2"},
		Sizes: sizes([]int{0, 1, 2}, []int{0, 1, 2}, nil), // indexes into kernelShapes
		Setup: func(r *Run) Sweep {
			n, reps := r.Pick(1<<16, 1<<12, 0), r.Pick(10, 3, 0)
			r.Printf("warm semijoin/join kernels, n=%d tuples per relation, avg of %d runs\n", n, reps)
			shapes := kernelShapes(r.Rand(22), n)
			return Sweep{Build: func(i int) ([]Op, Row, error) {
				sh := shapes[i]
				// Correctness first (tuple-for-tuple, in order), with the
				// results dead before any timing starts.
				scalar, batch := database.SemijoinScalar(sh.r, sh.rCols, sh.s, sh.sCols), database.Semijoin(sh.r, sh.rCols, sh.s, sh.sCols)
				survivors := batch.Len()
				if survivors != scalar.Len() {
					return nil, nil, fmt.Errorf("%s: batched semijoin %d tuples, scalar %d", sh.name, survivors, scalar.Len())
				}
				for k, tu := range scalar.Tuples {
					if !tu.Equal(batch.Tuples[k]) {
						return nil, nil, fmt.Errorf("%s: batched semijoin diverges from scalar at tuple %d", sh.name, k)
					}
				}
				if jb, js := database.Join("J", sh.r, sh.rCols, sh.s, sh.sCols).Len(), database.JoinScalar("J", sh.r, sh.rCols, sh.s, sh.sCols).Len(); jb != js {
					return nil, nil, fmt.Errorf("%s: batched join %d tuples, scalar %d", sh.name, jb, js)
				}
				return []Op{
						warmAvg(reps, func() *database.Relation { return database.SemijoinScalar(sh.r, sh.rCols, sh.s, sh.sCols) }),
						warmAvg(reps, func() *database.Relation { return database.Semijoin(sh.r, sh.rCols, sh.s, sh.sCols) }),
						warmAvg(reps, func() *database.Relation { return database.JoinScalar("J", sh.r, sh.rCols, sh.s, sh.sCols) }),
						warmAvg(reps, func() *database.Relation { return database.Join("J", sh.r, sh.rCols, sh.s, sh.sCols) }),
					}, func(m []Measured) ([]any, error) {
						var t [4]time.Duration
						for k, key := range []string{"semijoin_scalar", "semijoin_batch", "join_scalar", "join_batch"} {
							t[k] = m[k].Value.(time.Duration)
							r.Record(sh.name+"_"+key+"_ns", t[k].Nanoseconds())
						}
						r.Record(sh.name+"_semijoin_speedup", ratio(t[0], t[1]))
						r.Record(sh.name+"_join_speedup", ratio(t[2], t[3]))
						return []any{sh.name, survivors, t[0], t[1], ratio(t[0], t[1]), t[2], t[3], ratio(t[2], t[3])}, nil
					}, nil
			}}
		},
	}},
	Shape: []string{"shape: batched kernels win where probes dominate (hash staging, flat tables,",
		"inline keys, branch-free compaction); counted steps are bit-identical, so the",
		"complexity accounting of E4/E5 is untouched by vectorization."},
}

var snapshotQuery = logictest.MustParseCQ("Q(x) :- edge(x,y), label(y).")

// boundCount binds and counts the query under a counter: the answer and the
// counted work, both of which must be invariant across backings.
func boundCount(p *plan.Plan, db *database.Database) (string, int64, error) {
	c := &delay.Counter{}
	pr, err := p.BindCounted(db, c)
	if err != nil {
		return "", 0, err
	}
	n, err := pr.Count(c)
	if err != nil {
		return "", 0, err
	}
	return n.String(), c.Steps(), nil
}

// writeFacts renders db in fact-text syntax, rows in relation order, so the
// text loader reproduces the identical row order (the rows are already
// sorted and deduplicated; LoadFacts's defensive Dedup will not reorder).
func writeFacts(path string, db *database.Database) error {
	var b bytes.Buffer
	for _, name := range db.Names() {
		for _, tu := range db.Relation(name).Tuples {
			b.WriteString(name + "(")
			for i, v := range tu {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(strconv.FormatInt(int64(v), 10))
			}
			b.WriteString(").\n")
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// E24: cold start to a query-ready database. Three loaders over the same
// facts — the text parser (intern, batch-insert, dedup), the snapshot reader
// (validate, decode into heap slabs) and the mmap path (validate, alias the
// pages) — and the complexity accounting must not notice which one ran.
var e24 = Experiment{
	ID: "E24", Title: "Extension: out-of-core snapshots — text parse vs snapshot read vs mmap cold start, counted steps bit-identical",
	Tables: []Table{{
		Intro: []string{"cold start to query-ready: fact-text parse vs snapshot heap read vs snapshot mmap;",
			"then Q(x) :- edge(x,y), label(y). bound and counted on each backing — steps bit-identical"},
		Cols:  []string{"n:9", "rows:9", "snapBytes:11", "textLoad:13", "snapRead:13", "snapMmap:13", "read×:8.1", "mmap×:8.1"},
		Sizes: sizes([]int{1 << 16, 1 << 18, 1 << 20}, []int{1 << 12, 1 << 14}, nil),
		Setup: each(func(r *Run, n int) ([]Op, Row, error) {
			p, err := plan.Compile(snapshotQuery)
			if err != nil {
				return nil, nil, err
			}
			dir, err := r.TempDir()
			if err != nil {
				return nil, nil, err
			}
			rng := rand.New(rand.NewSource(24))
			db := dbOf(graphs.RandomRelation(rng, "edge", 2, n, n/2), graphs.RandomRelation(rng, "label", 1, n/4, n/2))
			rows := db.Relation("edge").Len() + db.Relation("label").Len()
			textPath, snapPath := filepath.Join(dir, "facts.txt"), filepath.Join(dir, "facts.snap")
			if err := writeFacts(textPath, db); err != nil {
				return nil, nil, err
			}
			if err := snapshot.WriteFile(snapPath, db, nil, nil); err != nil {
				return nil, nil, err
			}
			st, err := os.Stat(snapPath)
			if err != nil {
				return nil, nil, err
			}
			// Reference answer and steps from the in-memory original.
			wantCount, wantSteps, err := boundCount(p, db)
			if err != nil {
				return nil, nil, err
			}
			// Load paths are deterministic: best of three filters scheduler
			// noise without averaging in a cold-cache outlier.
			var textDB, readDB *database.Database
			mapped := &snapshot.Snapshot{}
			text, read, mmap := run("text", func() error {
				f, err := os.Open(textPath)
				if err != nil {
					return err
				}
				defer f.Close()
				textDB, err = core.LoadFacts(f, database.NewDictionary())
				return err
			}), run("snapRead", func() error {
				s, err := snapshot.ReadFile(snapPath)
				if err == nil {
					readDB = s.Database()
				}
				return err
			}), run("snapMmap", func() error {
				err := mapped.Close()
				if err == nil {
					mapped, err = snapshot.Open(snapPath)
				}
				return err
			})
			text.Reps, read.Reps, mmap.Reps = 3, 3, 3
			return []Op{text, read, mmap}, func(m []Measured) ([]any, error) {
				defer mapped.Close()
				for _, b := range []struct {
					label string
					db    *database.Database
				}{{"text", textDB}, {"snapRead", readDB}, {"snapMmap", mapped.Database()}} {
					count, steps, err := boundCount(p, b.db)
					if err != nil {
						return nil, err
					}
					if count != wantCount {
						return nil, fmt.Errorf("%s backing counts %s answers, original %s", b.label, count, wantCount)
					}
					if steps != wantSteps {
						return nil, fmt.Errorf("%s backing counted %d steps, original %d", b.label, steps, wantSteps)
					}
				}
				textT, readT, mmapT := m[0].Best, m[1].Best, m[2].Best
				r.RecordAt(n, "text_load_ns", textT.Nanoseconds(), "snap_read_ns", readT.Nanoseconds(), "snap_mmap_ns", mmapT.Nanoseconds(),
					"read_speedup", ratio(textT, readT), "mmap_speedup", ratio(textT, mmapT), "snap_bytes", st.Size(), "steps", wantSteps)
				return []any{n, rows, st.Size(), textT, readT, mmapT, ratio(textT, readT), ratio(textT, mmapT)}, nil
			}, nil
		}),
	}},
	Shape: []string{"shape: the text loader re-does per-fact work (parse, intern, dedup) on every",
		"boot; the snapshot paths validate checksums and either decode (read) or alias",
		"(mmap) prebuilt slabs, so startup cost collapses while the engines — and their",
		"counted steps — cannot tell the backings apart."},
}
