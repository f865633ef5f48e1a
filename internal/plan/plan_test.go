package plan

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

// TestEnumerationVerdictSelfJoins: the lower bounds of Theorems 4.8 and 4.9
// are stated for self-join-free CQs, so a query with a self-join is never
// handed one — cyclic or acyclic, the verdict says the classification is
// open.
func TestEnumerationVerdictSelfJoins(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"Q() :- E(x,y), F(y,z), G(z,x).", "no Constant-Delay_lin expected (Theorem 4.9 under Hyperclique); generic backtracking used"},
		{"Q() :- E(x,y), E(y,z), E(z,x).", "cyclic (self-joins: classification open); generic backtracking used"},
		{"Q(x,y) :- A(x,z), B(z,y).", "linear delay (Theorem 4.3); constant delay impossible under Mat-Mul (Theorem 4.8)"},
		{"Q(x,y) :- A(x,z), A(z,y).", "linear delay (Theorem 4.3); not free-connex (self-joins: classification open)"},
	} {
		if got := Analyze(parseCQ(t, tc.src)).EnumerationVerdict; got != tc.want {
			t.Errorf("%s: enumeration verdict %q, want %q", tc.src, got, tc.want)
		}
	}
}

// engineNames is the phrase by which a verdict names each engine.
var engineNames = map[Engine]string{
	EngineYannakakis:    "semijoin pass (Yannakakis",
	EngineNCQ:           "NCQ solver used",
	EngineBacktrack:     "generic backtracking used",
	EngineStarSizeCount: "via star-size algorithm",
	EngineNeqCount:      "inclusion–exclusion over the comparisons used",
	EngineConstantDelay: "Constant-Delay_lin (free-connex, Theorem 4.6)",
	EngineLinearDelay:   "linear delay (Theorem 4.3)",
	EngineNeqEnum:       "Constant-Delay_lin (free-connex, Theorem 4.6) with disequalities (Theorem 4.20)",
}

// TestVerdictsNameTheirEngine iterates the route table: every row is
// reached by its example queries, Compile gives each the row's engine
// triple, and each task's verdict names the engine the row runs for it.
func TestVerdictsNameTheirEngine(t *testing.T) {
	examples := map[int][]string{
		routeConstant:  {"Q(x,y) :- A(x,y), B(y,z)."},
		routeLinear:    {"Q(x,y) :- A(x,z), B(z,y)."},
		routeNeq:       {"Q(x,y) :- E(x,y), L(y), x != y."},
		routeNeqCount:  {"Q(x,y) :- E(x,y), L(y), x = y.", "Q(x,z) :- E(x,y), F(y,z), x != z."},
		routeBacktrack: {"Q(x) :- E(x,y), x < y.", "Q() :- E(x,y), F(y,z), G(z,x).", "Q(x) :- R(x,y), !S(y,x)."},
		routeNCQ:       {"Q() :- !R(x,y), !S(y,z).", "Q() :- !R(x,y), !S(y,z), !T(z,x)."},
		routeUnion:     {"Q(x) :- A(x,y); Q(x) :- B(x,y)."},
	}
	for i := range routes {
		row := &routes[i]
		if len(examples[i]) == 0 {
			t.Errorf("route table row %d (%s) has no example query", i, row.enumerate)
		}
		for _, src := range examples[i] {
			var p *Plan
			var err error
			if i == routeUnion {
				var u *logic.UCQ
				if u, err = logic.ParseUCQ(src); err == nil {
					p, err = CompileUCQ(u)
				}
			} else {
				p, err = Compile(parseCQ(t, src))
			}
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if p.route != row || p.DecideEngine != row.decide || p.CountEngine != row.count || p.EnumerateEngine != row.enumerate {
				t.Fatalf("%s: engines (%s, %s, %s), want row %d (%s, %s, %s)", src,
					p.DecideEngine, p.CountEngine, p.EnumerateEngine, i, row.decide, row.count, row.enumerate)
			}
			if p.Report == nil {
				continue // a union's verdicts are its disjuncts'
			}
			for _, v := range []struct {
				task, verdict string
				engine        Engine
			}{
				{"decide", p.Report.DecisionVerdict, row.decide},
				{"count", p.Report.CountingVerdict, row.count},
				{"enumerate", p.Report.EnumerationVerdict, row.enumerate},
			} {
				if !strings.Contains(v.verdict, engineNames[v.engine]) {
					t.Errorf("%s: %s verdict %q does not name engine %s (%q)", src, v.task, v.verdict, v.engine, engineNames[v.engine])
				}
			}
		}
	}
}
