package plan

// Delta-binding: Refresh catches a stale Prepared up with the database
// instead of forcing the full re-Bind cliff. Every route pins the
// generations of the relations it reads, so a mutation elsewhere keeps its
// bound state and memos (RefreshNoop). The spine routes switch their
// relations' delta logs on: the first Refresh after a mutation rebuilds
// the spine in place and installs the incremental refreshers from
// internal/cq, which absorb every later small delta in time proportional
// to the delta; oversized deltas, relation swaps and anything a refresher
// declines fall back to the rebuild. The other routes drop their answer
// list.

import (
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
)

// RefreshKind reports how a Refresh call caught the statement up.
type RefreshKind int

const (
	// RefreshNoop: nothing the statement reads had mutated; its bound
	// state and memoized results were kept.
	RefreshNoop RefreshKind = iota
	// RefreshDelta: the bound state was patched incrementally (or the
	// route binds nothing eagerly and only the memos were dropped).
	RefreshDelta
	// RefreshRebind: the spine was rebuilt in place — the delta was too
	// large, unavailable, or declined by the incremental refresher.
	RefreshRebind
)

func (k RefreshKind) String() string {
	switch k {
	case RefreshNoop:
		return "noop"
	case RefreshDelta:
		return "delta"
	case RefreshRebind:
		return "rebind"
	}
	return "unknown"
}

// relSnap pins one read relation at its generation; a later pointer
// mismatch means the relation was replaced and its deltas are void.
type relSnap struct {
	name string
	rel  *database.Relation
	gen  uint64
}

// pin records the relations of the atoms of qs, positive and negated, at
// their generations, so that Refresh tells a mutation of the read set from
// a bystander's. A spine route also switches their delta logs on for its
// refresher. Another route pins nothing where a variable occurs in no
// positive atom: it ranges over the active domain, which every relation
// feeds.
func (pr *Prepared) pin(spine bool, qs ...*logic.CQ) {
	pr.snaps = pr.snaps[:0]
	seen := make(map[string]bool)
	for _, q := range qs {
		if !spine && len(q.Vars()) > len((&logic.CQ{Atoms: q.Atoms}).Vars()) {
			pr.snaps = nil
			return
		}
		for _, atoms := range [2][]logic.Atom{q.Atoms, q.NegAtoms} {
			for _, a := range atoms {
				if seen[a.Pred] {
					continue
				}
				seen[a.Pred] = true
				s := relSnap{name: a.Pred, rel: pr.db.Relation(a.Pred)}
				if s.rel != nil {
					if spine {
						s.rel.EnableDeltaLog()
					}
					s.gen = s.rel.Generation()
				}
				pr.snaps = append(pr.snaps, s)
			}
		}
	}
}

// readSetUnchanged reports whether every relation the statement reads is
// the relation, at the generation, pinned by the last bind/refresh. A
// statement that pinned nothing never is.
func (pr *Prepared) readSetUnchanged() bool {
	if pr.snaps == nil {
		return false
	}
	for _, s := range pr.snaps {
		cur := pr.db.Relation(s.name)
		if cur != s.rel || (cur != nil && cur.Generation() != s.gen) {
			return false
		}
	}
	return true
}

// applyDeltas feeds refr each read relation's delta since the last pin.
// It reports false — rebuild — when a relation was replaced, a delta
// window has expired, replaying would cost more than rebuilding, or refr
// declines.
func (pr *Prepared) applyDeltas(refr interface {
	Apply(map[string]database.Delta) bool
}) bool {
	deltas := make(map[string]database.Delta, len(pr.snaps))
	total, base := 0, 0
	for i := range pr.snaps {
		s := &pr.snaps[i]
		cur := pr.db.Relation(s.name)
		if cur == nil || cur != s.rel {
			return false
		}
		d, ok := cur.DeltaSince(s.gen)
		if !ok {
			return false
		}
		deltas[s.name] = d
		total += d.Len()
		base += cur.Len()
	}
	return total*4 <= base+256 && refr.Apply(deltas)
}

// Refresh brings a stale Prepared back in sync with its database, as the
// file header describes; the SAME Prepared keeps serving, so the plan
// cache need not evict it. Refresh never ticks enumeration counters (its
// work shows under a "refresh" phase span), so counted steps stay
// bit-identical to a fresh bind's. It is not safe concurrently with
// executions of the statement, which the staleness check invalidates.
func (pr *Prepared) Refresh(c *delay.Counter) (RefreshKind, error) {
	g := pr.db.Generation()
	if g == pr.gen {
		return RefreshNoop, nil
	}
	span := c.StartSpan("refresh")
	defer span.End()
	pr.mu.Lock()
	defer pr.mu.Unlock()
	kind := RefreshNoop
	if !pr.readSetUnchanged() {
		pr.decided, pr.decideV, pr.decideE = false, false, nil
		pr.counted, pr.countV, pr.countE = false, nil, nil
		kind = pr.r.refresh()
	}
	pr.gen = g
	return kind, nil
}
