package plan

// Delta-binding: Refresh catches a stale Prepared up with the database
// instead of forcing the full re-Bind cliff. Bind snapshots which
// relations a statement reads (switching their delta logs on); the first
// Refresh after a mutation rebuilds the spine in place and installs the
// incremental refreshers from internal/cq; every later small delta is
// then absorbed by patching the bound state — semijoin-reduced sets, CSR
// row-id buckets, slabs — in time proportional to the delta, not the
// database. Oversized deltas, relation swaps, and anything the
// refreshers decline fall back to the in-place rebuild, which is always
// correct.

import (
	"repro/internal/cq"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/ineq"
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

// relSnap pins one read relation at its generation as of the last
// bind/refresh; a pointer mismatch on a later Refresh means the relation
// was replaced wholesale and deltas cannot be trusted.
type relSnap struct {
	name string
	rel  *database.Relation
	gen  uint64
}

// hasSpine reports whether the plan's enumeration route binds eager
// state that Refresh must maintain.
func (pr *Prepared) hasSpine() bool {
	if pr.plan.UCQ != nil {
		return false
	}
	switch pr.plan.EnumerateEngine {
	case EngineConstantDelay, EngineLinearDelay, EngineNeqEnum:
		return true
	}
	return false
}

// trackRelations records the statement's read set and enables delta
// logging on it, so mutations between now and the next Refresh are
// replayable. Called at Bind and after every in-place rebuild.
func (pr *Prepared) trackRelations() {
	pr.snaps = pr.snaps[:0]
	seen := make(map[string]bool)
	for _, a := range pr.plan.CQ.Atoms {
		if seen[a.Pred] {
			continue
		}
		seen[a.Pred] = true
		s := relSnap{name: a.Pred, rel: pr.db.Relation(a.Pred)}
		if s.rel != nil {
			s.rel.EnableDeltaLog()
			s.gen = s.rel.Generation()
		}
		pr.snaps = append(pr.snaps, s)
	}
}

// readSetUnchanged reports whether every relation the statement reads is
// the relation, at the generation, pinned by the last bind/refresh. Only
// the spine routes pin a read set; the lazy routes always report false.
func (pr *Prepared) readSetUnchanged() bool {
	if !pr.hasSpine() {
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

// collectDeltas gathers each read relation's delta since the last
// bind/refresh. ok is false — forcing a rebuild — when a relation was
// replaced, a delta window has expired, or the combined delta is so
// large that replaying it would cost more than rebuilding.
func (pr *Prepared) collectDeltas() (map[string]database.Delta, bool) {
	deltas := make(map[string]database.Delta, len(pr.snaps))
	total, base := 0, 0
	for i := range pr.snaps {
		s := &pr.snaps[i]
		cur := pr.db.Relation(s.name)
		if cur == nil || cur != s.rel {
			return nil, false
		}
		d, ok := cur.DeltaSince(s.gen)
		if !ok {
			return nil, false
		}
		deltas[s.name] = d
		total += d.Len()
		base += cur.Len()
	}
	if total*4 > base+256 {
		return nil, false
	}
	return deltas, true
}

// Refresh brings a stale Prepared back in sync with its database. Small
// deltas are absorbed by incrementally patching the bound spine
// (RefreshDelta); large or unreplayable ones trigger an in-place rebuild
// of the spine (RefreshRebind) — either way the SAME Prepared keeps
// serving, its memoized results dropped, and the plan cache need not
// evict the entry. Refresh never ticks enumeration counters: counted
// steps of decide/count/enumerate stay bit-identical to one-shot runs
// (the maintenance work is visible under a "refresh" phase span).
//
// Refresh is not safe concurrently with in-flight executions of the same
// statement — but those are exactly the executions the staleness check
// already invalidates.
func (pr *Prepared) Refresh(c *delay.Counter) (RefreshKind, error) {
	g := pr.db.Generation()
	if g == pr.gen {
		return RefreshNoop, nil
	}
	span := c.StartSpan("refresh")
	defer span.End()
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.readSetUnchanged() {
		// The generation moved through relations this statement never
		// reads: spine, refreshers and memos are all still exact.
		pr.gen = g
		return RefreshNoop, nil
	}
	pr.clearMemosLocked()
	if !pr.hasSpine() {
		// Lazy routes bind nothing eagerly: every execution engine reads
		// pr.db live, so adopting the new generation IS the refresh.
		pr.gen = g
		return RefreshDelta, nil
	}
	if pr.tracked {
		if deltas, ok := pr.collectDeltas(); ok && pr.applyDeltas(deltas) {
			pr.trackRelations()
			pr.gen = g
			return RefreshDelta, nil
		}
	}
	pr.rebindLocked()
	pr.gen = g
	return RefreshRebind, nil
}

// applyDeltas feeds the collected deltas to the installed incremental
// refresher; false means the caller must rebuild.
func (pr *Prepared) applyDeltas(deltas map[string]database.Delta) bool {
	switch {
	case pr.constR != nil:
		return pr.constR.Apply(deltas)
	case pr.linR != nil:
		return pr.linR.Apply(deltas)
	}
	return false
}

// rebindLocked rebuilds the enumeration spine in place against the
// current database and installs the incremental refreshers so the NEXT
// small delta is absorbed without rebuilding. Spine build failures are
// deferred into spineErr, exactly as Bind defers them.
func (pr *Prepared) rebindLocked() {
	p := pr.plan
	pr.constR, pr.linR = nil, nil
	pr.tracked = false
	switch p.EnumerateEngine {
	case EngineConstantDelay:
		cr, core, err := cq.NewConstRefresher(pr.db, p.CQ)
		if err != nil {
			pr.constCore.Store(nil)
			pr.spineErr = err
			break
		}
		pr.constCore.Store(core)
		pr.spineErr = nil
		pr.constR = cr
		pr.tracked = true
	case EngineLinearDelay:
		lr, lp, err := cq.NewLinearRefresher(pr.db, p.CQ)
		if err != nil {
			pr.linPrep, pr.spineErr = nil, err
			break
		}
		pr.linPrep, pr.spineErr = lp, nil
		pr.linR = lr
		pr.tracked = true
	case EngineNeqEnum:
		if pr.neqPrep != nil {
			pr.spineErr = pr.neqPrep.Rebuild(pr.db, p.CQ, nil)
		} else {
			pr.neqPrep, pr.spineErr = ineq.PrepareNeq(pr.db, p.CQ, nil)
		}
	}
	pr.trackRelations()
}

// clearMemosLocked drops every memoized execution result; they were
// computed against the previous generation.
func (pr *Prepared) clearMemosLocked() {
	pr.decided, pr.decideV, pr.decideE = false, false, nil
	pr.counted, pr.countV, pr.countE = false, nil, nil
	pr.rowsDone, pr.rows, pr.rowsErr = false, nil, nil
	pr.w, pr.wErr = nil, nil
}
