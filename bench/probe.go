package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/database"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/snapshot"
)

// The layer probes time single calls into each module's public functions on
// D1, outside any request. They do not depend on the workload: every traced
// run reports them, so a change to a layer shows here even on a workload
// whose traffic never reaches it.

func timeIt(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds())
}

// medianOf runs f n times and returns the median duration in ns.
func medianOf(n int, f func()) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = timeIt(f)
	}
	return median(v)
}

func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func probes(o runOpts, w *world) (map[string]float64, error) {
	m := map[string]float64{}
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	tuples := float64(w.data.tuples())

	// snapshot and core: the three ways a process gets to a database.
	probeSnap := filepath.Join(o.dir, "probe.snap")
	m["snapshot.write_ns"] = timeIt(func() { fail(snapshot.WriteFile(probeSnap, w.data.db, nil, nil)) })
	if st, e := os.Stat(probeSnap); e == nil {
		m["snapshot.file_bytes_per_tuple"] = float64(st.Size()) / tuples
	} else {
		fail(e)
	}
	m["snapshot.open_ns"] = medianOf(3, func() {
		s, e := snapshot.Open(w.data.snap)
		if e != nil {
			fail(e)
			return
		}
		fail(s.Close())
	})
	before := heapAlloc()
	var heap *snapshot.Snapshot
	m["snapshot.read_ns"] = timeIt(func() {
		var e error
		heap, e = snapshot.ReadFile(w.data.snap)
		fail(e)
	})
	if err != nil {
		return nil, err
	}
	m["database.heap_bytes_per_tuple"] = float64(heapAlloc()-before) / tuples
	m["core.load_facts_ns"] = timeIt(func() {
		f, e := os.Open(w.data.text)
		if e != nil {
			fail(e)
			return
		}
		defer f.Close()
		_, e = core.LoadFacts(f, database.NewDictionary())
		fail(e)
	})

	// plan and cq, on the heap copy: one cold bind, and each enumeration
	// route drained once with a step counter.
	db := heap.Database()
	bind := func(st *stmt) (*plan.Prepared, float64, int64) {
		q, e := logic.ParseCQ(st.text)
		if e != nil {
			fail(e)
			return nil, 0, 0
		}
		p, e := plan.Compile(q)
		if e != nil {
			fail(e)
			return nil, 0, 0
		}
		c := &delay.Counter{}
		var pr *plan.Prepared
		ns := timeIt(func() { pr, e = p.BindCounted(db, c) })
		fail(e)
		return pr, ns, c.Steps()
	}
	var steps int64
	_, m["plan.bind_ns"], steps = bind(newStmt(shapeChain3, pairS))
	m["plan.bind_steps"] = float64(steps)
	for _, r := range []struct {
		st    *stmt
		route string
	}{{stFC2, "const"}, {stNeq2, "neq"}, {stMMs, "linear"}} {
		pr, _, _ := bind(r.st)
		if err != nil {
			return nil, err
		}
		c := &delay.Counter{}
		e, e2 := pr.Enumerate(c)
		if e2 != nil {
			return nil, e2
		}
		n := 0
		ns := timeIt(func() {
			for _, ok := e.Next(); ok; _, ok = e.Next() {
				n++
			}
		})
		if want := w.expect(r.st.sh, r.st.p).count; int64(n) != want {
			fail(fmt.Errorf("probe: %s enumerates %d answers, want %d", r.st.key, n, want))
		}
		m["cq."+r.route+"_next_ns"] = ns / float64(n)
		if r.route != "neq" {
			m["cq."+r.route+"_steps_per_answer"] = float64(c.Steps()) / float64(n)
		}
	}

	// database, on a mapped copy: index build, probes and a semijoin on the
	// big pair, then what one mutation costs at each size.
	mapped, e := snapshot.Open(w.data.snap)
	if e != nil {
		return nil, e
	}
	defer mapped.Close()
	mdb := mapped.Database()
	edge, label := mdb.Relation(pairBig.edge), mdb.Relation(pairBig.label)
	edge.Slab()
	var ix *database.Index
	m["database.index_build_ns"] = timeIt(func() { ix = edge.IndexOn([]int{0}) })
	rng := rand.New(rand.NewSource(o.seed))
	const lookups = 1 << 16
	keys := make([]database.Tuple, lookups)
	for i := range keys {
		keys[i] = database.Tuple{database.Value(rng.Intn(o.sc.dom(pairBig)) + 1)}
	}
	found := 0
	m["database.probe_ns"] = timeIt(func() {
		for _, k := range keys {
			found += len(ix.Lookup(k, []int{0}))
		}
	}) / lookups
	if found == 0 {
		fail(fmt.Errorf("probe: %d index lookups found no row", lookups))
	}
	m["database.semijoin_ns"] = timeIt(func() { database.Semijoin(edge, []int{1}, label, []int{0}) })

	mutate := func(r *database.Relation, dom int) func() {
		t := database.Tuple{database.Value(dom + 1), 1}
		in := false
		return func() {
			if in = !in; in {
				fail(r.InsertBatch([]database.Tuple{t}))
			} else {
				r.Delete(t)
			}
		}
	}
	big := mutate(edge, o.sc.dom(pairBig))
	m["database.promote_ns"] = timeIt(big) // the first write copies the mapped rows to the heap
	m["database.slab_rebuild_ns"] = timeIt(func() { edge.Slab() })
	m["database.mutate_big_ns"] = medianOf(6, big)
	small := mutate(mdb.Relation(pairS.edge), o.sc.dom(pairS))
	small()
	m["database.mutate_ns"] = medianOf(8, small)
	return m, err
}
