package repro

// One benchmark per experiment of DESIGN.md, all through one driver over
// the registry of internal/experiments: the instances, queries and
// operations are the ones cmd/qbench tabulates, and EXPERIMENTS.md records
// a full run. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks report per-iteration time over fixed instance sizes so that
// the b.N scaling of the testing framework does not conflate with the
// data-size scaling under study; size sweeps live in cmd/qbench.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// benchTables runs every op of the tables registered under
// Benchmark<name> as the sub-benchmark <Op>/<param>=<size>. Each
// sub-benchmark run rebuilds its instance, so an op that mutates it (the
// refresh benchmarks) starts every b.N from the same state.
func benchTables(b *testing.B, name string) {
	tables := experiments.Benches(name)
	if len(tables) == 0 {
		b.Fatalf("no table registered for Benchmark%s", name)
	}
	for _, t := range tables {
		for si, n := range t.Sizes[experiments.Bench] {
			ops, err := t.BenchOps(si)
			if err != nil {
				b.Fatal(err)
			}
			for oi, op := range ops {
				sub := op.Name
				if t.Param != "" {
					sub = strings.TrimPrefix(fmt.Sprintf("%s/%s=%d", op.Name, t.Param, n), "/")
				}
				body := func(b *testing.B) {
					ops, err := t.BenchOps(si)
					if err != nil {
						b.Fatal(err)
					}
					op := ops[oi]
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := op.Once(); err != nil {
							b.Fatal(err)
						}
					}
					if op.Metric != nil {
						unit, total := op.Metric()
						b.ReportMetric(total/float64(b.N), unit)
					}
				}
				if sub == "" {
					body(b)
				} else {
					b.Run(sub, body)
				}
			}
		}
	}
}

func BenchmarkE1BoundedDegreeFO(b *testing.B)          { benchTables(b, "E1BoundedDegreeFO") }
func BenchmarkE2LowDegree(b *testing.B)                { benchTables(b, "E2LowDegree") }
func BenchmarkE3MSOTrees(b *testing.B)                 { benchTables(b, "E3MSOTrees") }
func BenchmarkE4Yannakakis(b *testing.B)               { benchTables(b, "E4Yannakakis") }
func BenchmarkE5Delay(b *testing.B)                    { benchTables(b, "E5Delay") }
func BenchmarkE6MatMul(b *testing.B)                   { benchTables(b, "E6MatMul") }
func BenchmarkE9UCQ(b *testing.B)                      { benchTables(b, "E9UCQ") }
func BenchmarkE10CliqueEncoding(b *testing.B)          { benchTables(b, "E10CliqueEncoding") }
func BenchmarkE11Disequalities(b *testing.B)           { benchTables(b, "E11Disequalities") }
func BenchmarkE12WeightedCount(b *testing.B)           { benchTables(b, "E12WeightedCount") }
func BenchmarkE13StarSize(b *testing.B)                { benchTables(b, "E13StarSize") }
func BenchmarkE14BetaAcyclic(b *testing.B)             { benchTables(b, "E14BetaAcyclic") }
func BenchmarkE15Prefix(b *testing.B)                  { benchTables(b, "E15Prefix") }
func BenchmarkE16NaiveFO(b *testing.B)                 { benchTables(b, "E16NaiveFO") }
func BenchmarkE17RandomAccess(b *testing.B)            { benchTables(b, "E17RandomAccess") }
func BenchmarkSpineWeights(b *testing.B)               { benchTables(b, "SpineWeights") }
func BenchmarkPageSeek(b *testing.B)                   { benchTables(b, "PageSeek") }
func BenchmarkCountAfterRefresh(b *testing.B)          { benchTables(b, "CountAfterRefresh") }
func BenchmarkOdometerStream(b *testing.B)             { benchTables(b, "OdometerStream") }
func BenchmarkPlanCacheBind(b *testing.B)              { benchTables(b, "PlanCacheBind") }
func BenchmarkColdBind(b *testing.B)                   { benchTables(b, "ColdBind") }
func BenchmarkPreparedRefresh(b *testing.B)            { benchTables(b, "PreparedRefresh") }
func BenchmarkAblationReducerPasses(b *testing.B)      { benchTables(b, "AblationReducerPasses") }
func BenchmarkAblationCountVsMaterialize(b *testing.B) { benchTables(b, "AblationCountVsMaterialize") }
func BenchmarkAblationBetaVsBrute(b *testing.B)        { benchTables(b, "AblationBetaVsBrute") }
