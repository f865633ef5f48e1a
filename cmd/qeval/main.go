// Command qeval evaluates conjunctive queries over fact files through the
// Compile → Bind → Execute pipeline, choosing the algorithm by the paper's
// classification (acyclicity, free-connexity, star size, β-acyclicity).
//
// Usage:
//
//	qeval -data facts.txt -query 'Q(x,y) :- friend(x,z), friend(z,y).' -task enumerate -limit 10
//	qeval -query '...' -task analyze -format json
//
// Tasks: analyze (default), decide, count, enumerate. A ";" in the query
// marks a union of conjunctive queries; every task accepts unions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/plan"
)

func main() {
	dataPath := flag.String("data", "", "fact file (one pred(args...) per line) or qsnap snapshot; empty for an empty database")
	queryStr := flag.String("query", "", "conjunctive query in rule syntax")
	task := flag.String("task", "analyze", "analyze | decide | count | enumerate")
	format := flag.String("format", "text", "analyze output format: text | json (the compiled plan)")
	limit := flag.Int("limit", 0, "stop enumeration after N answers (0 = all)")
	showDelay := flag.Bool("delay", false, "report measured enumeration delay statistics")
	traceOut := flag.String("trace", "", "write a machine-readable observability trace (delay histograms, phase spans) to this JSON file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "qeval:", err)
			}
		}()
	}

	if *queryStr == "" {
		fmt.Fprintln(os.Stderr, "qeval: -query is required")
		flag.Usage()
		os.Exit(2)
	}

	// One counter for the whole invocation: the "parse" span lands on it, and
	// the enumerate task threads it through the engine so the trace captures
	// tree-build/semijoin-reduce/enumerate spans and the delay histograms.
	c := &delay.Counter{}
	var observer *obs.Observer
	if *traceOut != "" {
		observer = obs.New()
		c.SetSink(observer)
	}

	// A ";" marks a union of conjunctive queries.
	var q *logic.CQ
	var u *logic.UCQ
	pspan := c.StartSpan("parse")
	if strings.Contains(*queryStr, ";") {
		var err error
		u, err = logic.ParseUCQ(*queryStr)
		if err != nil {
			fatal(err)
		}
	} else {
		var err error
		q, err = logic.ParseCQ(*queryStr)
		if err != nil {
			fatal(err)
		}
	}
	pspan.End()

	dict := database.NewDictionary()
	db := database.NewDatabase()
	if *dataPath != "" {
		lspan := c.StartSpan("load")
		var err error
		db, dict, _, err = core.LoadPath(*dataPath)
		lspan.End()
		if err != nil {
			fatal(err)
		}
	}

	switch *task {
	case "analyze":
		switch *format {
		case "text":
			if u != nil {
				for i, d := range u.Disjuncts {
					fmt.Printf("--- disjunct %d ---\n%s", i+1, plan.Analyze(d))
				}
			} else {
				fmt.Print(plan.Analyze(q))
			}
		case "json":
			p := compilePlan(c, q, u)
			out, err := json.MarshalIndent(p, "", "  ")
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s\n", out)
		default:
			fatal(fmt.Errorf("unknown format %q (want text or json)", *format))
		}
	case "decide":
		// The decision problem concerns the head-stripped query; a union
		// decides true iff some disjunct does (short-circuiting).
		if q != nil {
			q = &logic.CQ{Name: q.Name, Atoms: q.Atoms, NegAtoms: q.NegAtoms, Comparisons: q.Comparisons}
		}
		pr := bindPlan(c, db, compilePlan(c, q, u))
		espan := c.StartSpan("execute")
		ok, err := pr.Decide(c)
		espan.End()
		if err != nil {
			fatal(err)
		}
		fmt.Println(ok)
	case "count":
		pr := bindPlan(c, db, compilePlan(c, q, u))
		espan := c.StartSpan("execute")
		n, err := pr.Count(c)
		espan.End()
		if err != nil {
			fatal(err)
		}
		fmt.Println(n)
	case "enumerate":
		st, answers := delay.Measure(c, func() delay.Enumerator {
			pr := bindPlan(c, db, compilePlan(c, q, u))
			e, err := pr.Enumerate(c)
			if err != nil {
				fatal(err)
			}
			return e
		})
		for i, t := range answers {
			if *limit > 0 && i >= *limit {
				fmt.Printf("... (%d more)\n", len(answers)-*limit)
				break
			}
			fmt.Println(core.FormatTuple(t, dict))
		}
		if *showDelay {
			fmt.Printf("answers=%d preprocess=%v maxDelay=%v maxDelaySteps=%d\n",
				st.Outputs, st.PreprocessTime, st.MaxDelayTime, st.MaxDelaySteps)
		}
	default:
		fatal(fmt.Errorf("unknown task %q", *task))
	}

	if observer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		label := fmt.Sprintf("qeval/%s", *task)
		if err := obs.WriteTrace(f, []obs.Trace{observer.Snapshot(label)}); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "qeval: trace written to %s\n", *traceOut)
	}
	if *memprofile != "" {
		if err := obs.WriteHeapProfile(*memprofile); err != nil {
			fatal(err)
		}
	}
}

// compilePlan compiles whichever of q/u is set under a "compile" span.
func compilePlan(c *delay.Counter, q *logic.CQ, u *logic.UCQ) *plan.Plan {
	span := c.StartSpan("compile")
	defer span.End()
	var p *plan.Plan
	var err error
	if u != nil {
		p, err = plan.CompileUCQ(u)
	} else {
		p, err = plan.Compile(q)
	}
	if err != nil {
		fatal(err)
	}
	return p
}

// bindPlan binds p to db; BindCounted opens the "bind" span itself.
func bindPlan(c *delay.Counter, db *database.Database, p *plan.Plan) *plan.Prepared {
	pr, err := p.BindCounted(db, c)
	if err != nil {
		fatal(err)
	}
	return pr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qeval:", err)
	os.Exit(1)
}
