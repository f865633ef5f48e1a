// Package qgen generates seeded random instances — databases, acyclic and
// free-connex conjunctive queries, and unions of conjunctive queries — for
// differential testing against the brute-force oracle (internal/oracle).
//
// Queries are grown from a random join tree and are therefore guaranteed to
// be accepted by every engine in the repository: acyclic queries come out
// α-acyclic and safe by construction, free-connex queries additionally
// admit a join tree of the hypergraph extended with the head edge
// (Definition 4.4 of the paper). Generation is fully deterministic in the
// provided rand.Rand, so any failing instance is reproducible from its
// seed alone.
package qgen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/database"
	"repro/internal/logic"
)

// Config bounds the size and shape of generated instances. The defaults
// keep the brute-force oracle fast while still producing self-joins,
// constants, repeated variables, empty relations and multi-way join trees.
type Config struct {
	MaxHeadVars int // head arity of free-connex queries is 1..MaxHeadVars
	MaxAtoms    int // number of atoms is 1..MaxAtoms
	MaxFresh    int // fresh existential variables introduced per atom: 0..MaxFresh

	Domain    int // values are drawn from [1, Domain]
	MaxTuples int // tuples per relation: 0..MaxTuples (0 exercises empty joins)

	ConstProb    float64 // chance an atom carries an extra constant argument
	RepeatProb   float64 // chance an atom repeats one of its variables
	SelfJoinProb float64 // chance an atom reuses an earlier predicate of equal arity
	BoolProb     float64 // chance AcyclicCQ emits a Boolean (empty-head) query
}

// Default returns the configuration used by the differential suites.
func Default() Config {
	return Config{
		MaxHeadVars:  3,
		MaxAtoms:     4,
		MaxFresh:     2,
		Domain:       5,
		MaxTuples:    18,
		ConstProb:    0.15,
		RepeatProb:   0.15,
		SelfJoinProb: 0.25,
		BoolProb:     0.2,
	}
}

// namer hands out predicate names, optionally reusing an earlier name of
// the same arity to produce self-joins (within a query) and shared
// relations (across UCQ disjuncts).
type namer struct {
	n       int
	byArity map[int][]string
}

func newNamer() *namer { return &namer{byArity: make(map[int][]string)} }

func (nm *namer) pick(rng *rand.Rand, arity int, reuseProb float64) string {
	if pool := nm.byArity[arity]; len(pool) > 0 && rng.Float64() < reuseProb {
		return pool[rng.Intn(len(pool))]
	}
	name := fmt.Sprintf("R%d", nm.n)
	nm.n++
	nm.byArity[arity] = append(nm.byArity[arity], name)
	return name
}

// buildAtom turns a variable set into an atom: the variables in random
// order, optionally with a repeated variable and/or a constant argument.
func buildAtom(rng *rand.Rand, nm *namer, cfg Config, vars []string) logic.Atom {
	args := make([]logic.Term, 0, len(vars)+2)
	perm := rng.Perm(len(vars))
	for _, i := range perm {
		args = append(args, logic.V(vars[i]))
	}
	if len(vars) > 0 && rng.Float64() < cfg.RepeatProb {
		v := vars[rng.Intn(len(vars))]
		at := rng.Intn(len(args) + 1)
		args = append(args[:at], append([]logic.Term{logic.V(v)}, args[at:]...)...)
	}
	if rng.Float64() < cfg.ConstProb {
		c := logic.C(database.Value(1 + rng.Intn(cfg.Domain)))
		at := rng.Intn(len(args) + 1)
		args = append(args[:at], append([]logic.Term{c}, args[at:]...)...)
	}
	return logic.Atom{Pred: nm.pick(rng, len(args), cfg.SelfJoinProb), Args: args}
}

// subset returns a random nonempty subset of vs (nil for empty vs).
func subset(rng *rand.Rand, vs []string) []string {
	if len(vs) == 0 {
		return nil
	}
	k := 1 + rng.Intn(len(vs))
	perm := rng.Perm(len(vs))
	out := make([]string, 0, k)
	for _, i := range perm[:k] {
		out = append(out, vs[i])
	}
	sort.Strings(out)
	return out
}

// AcyclicCQ generates a safe α-acyclic conjunctive query: atom 0 is the
// join-tree root, every later atom shares a nonempty variable subset with
// an earlier atom (its tree parent) and may introduce fresh existential
// variables, so the running-intersection property holds by construction.
// The head is a random subset of the variables — empty (Boolean) with
// probability cfg.BoolProb — and is not necessarily free-connex.
func AcyclicCQ(rng *rand.Rand, cfg Config) *logic.CQ {
	return acyclicCQ(rng, cfg, newNamer())
}

func acyclicCQ(rng *rand.Rand, cfg Config, nm *namer) *logic.CQ {
	nAtoms := 1 + rng.Intn(cfg.MaxAtoms)
	var nodes [][]string // variable set per atom, tree order
	var all []string
	fresh := 0
	newVar := func() string {
		v := fmt.Sprintf("v%d", fresh)
		fresh++
		all = append(all, v)
		return v
	}
	for i := 0; i < nAtoms; i++ {
		var vars []string
		if i > 0 {
			vars = subset(rng, nodes[rng.Intn(i)])
		}
		nf := rng.Intn(cfg.MaxFresh + 1)
		if len(vars)+nf == 0 {
			nf = 1
		}
		for k := 0; k < nf; k++ {
			vars = append(vars, newVar())
		}
		nodes = append(nodes, vars)
	}
	q := &logic.CQ{Name: "Q"}
	for _, vars := range nodes {
		q.Atoms = append(q.Atoms, buildAtom(rng, nm, cfg, vars))
	}
	if rng.Float64() >= cfg.BoolProb {
		q.Head = subset(rng, all)
	}
	return q
}

// FullCQ generates a projection-free (quantifier-free) acyclic query: the
// head lists every variable. Such queries feed counting.CountFullJoin.
func FullCQ(rng *rand.Rand, cfg Config) *logic.CQ {
	q := AcyclicCQ(rng, cfg)
	seen := make(map[string]bool)
	q.Head = nil
	for _, a := range q.Atoms {
		for _, v := range a.Vars() {
			if !seen[v] {
				seen[v] = true
				q.Head = append(q.Head, v)
			}
		}
	}
	return q
}

// FreeConnexCQ generates a safe, α-acyclic, free-connex conjunctive query
// with head arity 1..cfg.MaxHeadVars. The query is grown as a join tree of
// the hypergraph extended with the head edge — the root carries the head
// variables and every atom shares a subset of its parent's variables — and
// then validated with the repository's own acyclicity and free-connexity
// tests; the rare candidate whose atom-only hypergraph turns out cyclic
// (head-variable sharing across sibling subtrees can close a cycle once
// the head edge is dropped) is rejected and regrown. A fallback with the
// head inside a single atom guarantees termination.
func FreeConnexCQ(rng *rand.Rand, cfg Config) *logic.CQ {
	return freeConnexCQ(rng, cfg, newNamer())
}

func freeConnexCQ(rng *rand.Rand, cfg Config, nm *namer) *logic.CQ {
	arity := 1 + rng.Intn(cfg.MaxHeadVars)
	for attempt := 0; attempt < 32; attempt++ {
		q := growFreeConnex(rng, cfg, nm, arity)
		if q.IsAcyclic() && q.IsFreeConnex() {
			return q
		}
	}
	// Fallback: head variables confined to the first atom; the head edge is
	// then a subset of an atom edge, which is always free-connex.
	q := acyclicCQ(rng, cfg, nm)
	first := q.Atoms[0].Vars()
	q.Head = subset(rng, first)
	if len(q.Head) == 0 {
		q.Head = first[:1]
	}
	return q
}

// FreeConnexCQArity is FreeConnexCQ with a fixed head arity, used to build
// UCQ disjuncts of a common arity.
func FreeConnexCQArity(rng *rand.Rand, cfg Config, arity int, nm *namer) *logic.CQ {
	for attempt := 0; attempt < 32; attempt++ {
		q := growFreeConnex(rng, cfg, nm, arity)
		if q.IsAcyclic() && q.IsFreeConnex() {
			return q
		}
	}
	q := growHeadInAtom(rng, cfg, nm, arity)
	return q
}

// growFreeConnex grows the extended join tree: node 0 is the synthetic head
// edge x0..x{arity-1}; each atom hangs under an earlier node, sharing a
// nonempty subset of its variables. Head variables left uncovered by the
// random growth are forced into one extra atom attached below the root.
func growFreeConnex(rng *rand.Rand, cfg Config, nm *namer, arity int) *logic.CQ {
	head := make([]string, arity)
	for i := range head {
		head[i] = fmt.Sprintf("x%d", i)
	}
	nodes := [][]string{head}
	covered := make(map[string]bool)
	fresh := 0
	nAtoms := 1 + rng.Intn(cfg.MaxAtoms)
	var atomVars [][]string
	for i := 0; i < nAtoms; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		vars := subset(rng, parent)
		nf := rng.Intn(cfg.MaxFresh + 1)
		if len(vars)+nf == 0 {
			nf = 1
		}
		for k := 0; k < nf; k++ {
			vars = append(vars, fmt.Sprintf("y%d", fresh))
			fresh++
		}
		nodes = append(nodes, vars)
		atomVars = append(atomVars, vars)
		for _, v := range vars {
			covered[v] = true
		}
	}
	var missing []string
	for _, v := range head {
		if !covered[v] {
			missing = append(missing, v)
		}
	}
	if len(missing) > 0 {
		atomVars = append(atomVars, missing)
	}
	q := &logic.CQ{Name: "Q", Head: head}
	for _, vars := range atomVars {
		q.Atoms = append(q.Atoms, buildAtom(rng, nm, cfg, vars))
	}
	return q
}

// growHeadInAtom generates the always-free-connex fallback for a fixed
// arity: the first atom holds all head variables.
func growHeadInAtom(rng *rand.Rand, cfg Config, nm *namer, arity int) *logic.CQ {
	head := make([]string, arity)
	for i := range head {
		head[i] = fmt.Sprintf("x%d", i)
	}
	q := &logic.CQ{Name: "Q", Head: head}
	q.Atoms = append(q.Atoms, buildAtom(rng, nm, cfg, head))
	// A chain of extra atoms below the first keeps some variety.
	prev := head
	extra := rng.Intn(cfg.MaxAtoms)
	for i := 0; i < extra; i++ {
		vars := subset(rng, prev)
		vars = append(vars, fmt.Sprintf("y%d", i))
		q.Atoms = append(q.Atoms, buildAtom(rng, nm, cfg, vars))
		prev = vars
	}
	return q
}

// UCQ generates a union of 1..3 free-connex disjuncts of a common head
// arity; predicates of equal arity may be shared across disjuncts.
func UCQ(rng *rand.Rand, cfg Config) *logic.UCQ {
	arity := 1 + rng.Intn(cfg.MaxHeadVars)
	k := 1 + rng.Intn(3)
	nm := newNamer()
	u := &logic.UCQ{Name: "U"}
	for i := 0; i < k; i++ {
		d := FreeConnexCQArity(rng, cfg, arity, nm)
		d.Name = fmt.Sprintf("Q%d", i)
		u.Disjuncts = append(u.Disjuncts, d)
	}
	return u
}

// DatabaseFor generates a random database providing every predicate used
// by the given queries, each relation filled with 0..cfg.MaxTuples random
// tuples over [1, cfg.Domain]. Predicates reused across queries (or within
// one, via self-joins) get a single shared relation. A predicate used at
// two arities panics: no one relation could serve both atoms.
func DatabaseFor(rng *rand.Rand, cfg Config, queries ...*logic.CQ) *database.Database {
	db := database.NewDatabase()
	arities := make(map[string]int)
	var order []string
	note := func(a logic.Atom) {
		ar, ok := arities[a.Pred]
		switch {
		case !ok:
			arities[a.Pred] = len(a.Args)
			order = append(order, a.Pred)
		case ar != len(a.Args):
			panic(fmt.Sprintf("qgen: predicate %s used at arity %d and at arity %d", a.Pred, ar, len(a.Args)))
		}
	}
	for _, q := range queries {
		for _, a := range q.Atoms {
			note(a)
		}
		for _, a := range q.NegAtoms {
			note(a)
		}
	}
	for _, pred := range order {
		db.AddRelation(RandRelation(rng, pred, arities[pred], rng.Intn(cfg.MaxTuples+1), cfg.Domain))
	}
	return db
}

// DatabaseForUCQ is DatabaseFor over a union's disjuncts.
func DatabaseForUCQ(rng *rand.Rand, cfg Config, u *logic.UCQ) *database.Database {
	return DatabaseFor(rng, cfg, u.Disjuncts...)
}

// RandRelation builds a deduplicated relation of the given arity with n
// random tuples over [1, domain].
func RandRelation(rng *rand.Rand, name string, arity, n, domain int) *database.Relation {
	r := database.NewRelation(name, arity)
	for i := 0; i < n; i++ {
		t := make(database.Tuple, arity)
		for j := range t {
			t[j] = database.Value(1 + rng.Intn(domain))
		}
		r.Insert(t)
	}
	r.Dedup()
	return r
}

// Mutation is one replayable single-tuple update against a named relation.
// Scripts of mutations drive the update-replay differential suites: the
// same script applied to equal databases produces equal databases.
type Mutation struct {
	Pred   string
	Insert bool // insert Tuple; otherwise delete every occurrence of it
	Tuple  database.Tuple
}

func (m Mutation) String() string {
	op := "delete"
	if m.Insert {
		op = "insert"
	}
	return fmt.Sprintf("%s %s%v", op, m.Pred, m.Tuple)
}

// Apply performs the mutation on db. Deleting an absent tuple is a valid
// no-op (and, by design, does not advance the relation's generation).
func (m Mutation) Apply(db *database.Database) error {
	rel := db.Relation(m.Pred)
	if rel == nil {
		return fmt.Errorf("qgen: mutation names unknown relation %s", m.Pred)
	}
	if m.Insert {
		return rel.InsertBatch([]database.Tuple{m.Tuple})
	}
	rel.Delete(m.Tuple)
	return nil
}

// MutationScript generates n single-tuple mutations against db's
// relations: mostly inserts (fresh random tuples, sometimes duplicate
// occurrences of present ones), otherwise deletes of present tuples, with
// a small chance of deleting an absent tuple (which must be a no-op).
// Presence is tracked against a simulation of db's contents — db itself is
// not touched — so generation is deterministic in (rng, db's state now)
// and the script replays identically on any equal database.
func MutationScript(rng *rand.Rand, cfg Config, db *database.Database, n int) []Mutation {
	names := db.Names()
	if len(names) == 0 {
		return nil
	}
	sim := make(map[string][]database.Tuple, len(names))
	for _, name := range names {
		sim[name] = append([]database.Tuple(nil), db.Relation(name).Tuples...)
	}
	script := make([]Mutation, 0, n)
	for len(script) < n {
		name := names[rng.Intn(len(names))]
		arity := db.Relation(name).Arity
		rows := sim[name]
		roll := rng.Float64()
		switch {
		case roll < 0.45 || len(rows) == 0:
			t := make(database.Tuple, arity)
			for j := range t {
				t[j] = database.Value(1 + rng.Intn(cfg.Domain))
			}
			sim[name] = append(rows, t)
			script = append(script, Mutation{Pred: name, Insert: true, Tuple: t})
		case roll < 0.60:
			// Duplicate occurrence of a present tuple: multiset bookkeeping
			// downstream must absorb it without changing any answer set.
			t := rows[rng.Intn(len(rows))].Clone()
			sim[name] = append(rows, t)
			script = append(script, Mutation{Pred: name, Insert: true, Tuple: t})
		case roll < 0.95:
			t := rows[rng.Intn(len(rows))].Clone()
			key := t.FullKey()
			kept := rows[:0]
			for _, row := range rows {
				if row.FullKey() != key {
					kept = append(kept, row)
				}
			}
			sim[name] = kept
			script = append(script, Mutation{Pred: name, Tuple: t})
		default:
			// Values above cfg.Domain never occur in generated data or
			// inserts, so this delete targets a guaranteed-absent tuple.
			t := make(database.Tuple, arity)
			for j := range t {
				t[j] = database.Value(cfg.Domain + 1 + rng.Intn(cfg.Domain))
			}
			script = append(script, Mutation{Pred: name, Tuple: t})
		}
	}
	return script
}

// Instance returns the free-connex query and database for a seed under the
// default configuration — the unit of the differential suites.
func Instance(seed int64) (*logic.CQ, *database.Database) {
	rng := rand.New(rand.NewSource(seed))
	cfg := Default()
	q := FreeConnexCQ(rng, cfg)
	return q, DatabaseFor(rng, cfg, q)
}

// FormatInstance renders a query and database as a reproducible report: the
// query in rule syntax followed by every relation in fact syntax. This is
// what the differential suites print on a mismatch so that a failure is a
// copy-pasteable one-liner.
func FormatInstance(q fmt.Stringer, db *database.Database) string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", q)
	b.WriteString(FormatDatabase(db))
	return b.String()
}

// FormatDatabase renders every relation of db in the fact syntax accepted
// by core.LoadFacts.
func FormatDatabase(db *database.Database) string {
	var b strings.Builder
	for _, name := range db.Names() {
		r := db.Relation(name)
		if r.Len() == 0 {
			fmt.Fprintf(&b, "# %s/%d is empty\n", name, r.Arity)
			continue
		}
		for _, t := range r.Tuples {
			parts := make([]string, len(t))
			for i, v := range t {
				parts[i] = fmt.Sprintf("%d", v)
			}
			fmt.Fprintf(&b, "%s(%s).\n", name, strings.Join(parts, ", "))
		}
	}
	return b.String()
}
