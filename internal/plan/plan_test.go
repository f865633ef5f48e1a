package plan

import "testing"

// TestEnumerationVerdictSelfJoins: the lower bounds of Theorems 4.8 and 4.9
// are stated for self-join-free CQs, so a query with a self-join is never
// handed one — cyclic or acyclic, the verdict says the classification is
// open.
func TestEnumerationVerdictSelfJoins(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"Q() :- E(x,y), F(y,z), G(z,x).", "no Constant-Delay_lin expected (Theorem 4.9 under Hyperclique)"},
		{"Q() :- E(x,y), E(y,z), E(z,x).", "cyclic (self-joins: classification open)"},
		{"Q(x,y) :- A(x,z), B(z,y).", "linear delay (Theorem 4.3); constant delay impossible under Mat-Mul (Theorem 4.8)"},
		{"Q(x,y) :- A(x,z), A(z,y).", "linear delay (Theorem 4.3); not free-connex (self-joins: classification open)"},
	} {
		if got := Analyze(parseCQ(t, tc.src)).EnumerationVerdict; got != tc.want {
			t.Errorf("%s: enumeration verdict %q, want %q", tc.src, got, tc.want)
		}
	}
}
