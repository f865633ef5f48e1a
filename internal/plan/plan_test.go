package plan

import (
	"strings"
	"testing"
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

// TestVerdictsNameTheirEngine: one query per reachable (decide, count,
// enumerate) engine triple of Compile; each task's verdict names the engine
// Compile routes that task to.
func TestVerdictsNameTheirEngine(t *testing.T) {
	for _, tc := range []struct {
		src                      string
		decide, count, enumerate Engine
	}{
		{"Q(x,y) :- A(x,y), B(y,z).", EngineYannakakis, EngineStarSizeCount, EngineConstantDelay},
		{"Q(x,y) :- A(x,z), B(z,y).", EngineYannakakis, EngineStarSizeCount, EngineLinearDelay},
		{"Q(x,y) :- E(x,y), L(y), x != y.", EngineBacktrack, EngineNeqCount, EngineNeqEnum},
		{"Q(x,y) :- E(x,y), L(y), x = y.", EngineBacktrack, EngineNeqCount, EngineBacktrack},
		{"Q(x,z) :- E(x,y), F(y,z), x != z.", EngineBacktrack, EngineNeqCount, EngineBacktrack},
		{"Q(x) :- E(x,y), x < y.", EngineBacktrack, EngineBacktrack, EngineBacktrack},
		{"Q() :- E(x,y), F(y,z), G(z,x).", EngineBacktrack, EngineBacktrack, EngineBacktrack},
		{"Q(x) :- R(x,y), !S(y,x).", EngineBacktrack, EngineBacktrack, EngineBacktrack},
		{"Q() :- !R(x,y), !S(y,z).", EngineNCQ, EngineBacktrack, EngineBacktrack},
		{"Q() :- !R(x,y), !S(y,z), !T(z,x).", EngineNCQ, EngineBacktrack, EngineBacktrack},
	} {
		p, err := Compile(parseCQ(t, tc.src))
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if p.DecideEngine != tc.decide || p.CountEngine != tc.count || p.EnumerateEngine != tc.enumerate {
			t.Fatalf("%s: engines (%s, %s, %s), want (%s, %s, %s)", tc.src,
				p.DecideEngine, p.CountEngine, p.EnumerateEngine, tc.decide, tc.count, tc.enumerate)
		}
		for _, v := range []struct {
			task, verdict string
			engine        Engine
		}{
			{"decide", p.Report.DecisionVerdict, p.DecideEngine},
			{"count", p.Report.CountingVerdict, p.CountEngine},
			{"enumerate", p.Report.EnumerationVerdict, p.EnumerateEngine},
		} {
			if !strings.Contains(v.verdict, engineNames[v.engine]) {
				t.Errorf("%s: %s verdict %q does not name engine %s (%q)", tc.src, v.task, v.verdict, v.engine, engineNames[v.engine])
			}
		}
	}
}
