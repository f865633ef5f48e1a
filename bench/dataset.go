package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/database"
	"repro/internal/graphs"
	"repro/internal/snapshot"
)

// scale sizes dataset D1 by the edge rows of its pairs. Every pair keeps
// E24's proportions, so cold-start numbers stay comparable with it: labels a
// quarter of the edges, both drawn over [1, edges/2].
//
// The big pair carries the scans. A single-tuple mutate and a cold bind are
// both O(rows): at the big pair's size either would put far fewer than the
// 1000 operations in a run that its p99 needs, so churn_rw works on the small
// pairs and cold_bind on the smaller cold pair.
type scale struct {
	name             string
	big, small, cold int
}

var scales = map[string]scale{
	"full": {"full", 1 << 18, 1 << 13, 1 << 11},
	"tiny": {"tiny", 1 << 10, 1 << 8, 1 << 7},
}

// pair names one edge/label relation pair of D1.
type pair struct{ edge, label string }

var (
	pairBig = pair{"edge", "label"}
	pairS   = pair{"edge_s", "label_s"} // churn_rw mutates edge_s
	pairB   = pair{"edge_b", "label_b"} // the bystander: never mutated
	pairC   = pair{"edge_c", "label_c"} // cold_bind
)

// edges is the number of edge rows drawn for p; its domain is [1, edges/2].
func (sc scale) edges(p pair) int {
	switch p {
	case pairBig:
		return sc.big
	case pairC:
		return sc.cold
	}
	return sc.small
}

func (sc scale) dom(p pair) int { return sc.edges(p) / 2 }

// dataset is D1(seed): the database handed to qservd as files, plus the same
// rows as plain integers for the oracle in expect.go.
type dataset struct {
	sc   scale
	db   *database.Database
	rows map[string][][]int64
	snap string // d1.snap
	text string // d1.txt
}

// buildDataset draws D1 from seed alone. Relation order and row order are
// fixed, so the same seed writes byte-identical files.
func buildDataset(seed int64, sc scale) *dataset {
	rng := rand.New(rand.NewSource(seed))
	db := database.NewDatabase()
	for _, p := range []pair{pairBig, pairS, pairB, pairC} {
		db.AddRelation(graphs.RandomRelation(rng, p.edge, 2, sc.edges(p), sc.dom(p)))
		db.AddRelation(graphs.RandomRelation(rng, p.label, 1, sc.edges(p)/4, sc.dom(p)))
	}
	d := &dataset{sc: sc, db: db, rows: map[string][][]int64{}}
	for _, name := range db.Names() {
		r := db.Relation(name)
		out := make([][]int64, len(r.Tuples))
		for i, t := range r.Tuples {
			row := make([]int64, len(t))
			for j, v := range t {
				row[j] = int64(v)
			}
			out[i] = row
		}
		d.rows[name] = out
	}
	return d
}

func (d *dataset) tuples() int {
	n := 0
	for _, rows := range d.rows {
		n += len(rows)
	}
	return n
}

// writeFiles writes d1.snap and d1.txt into dir; these two files are all the
// server ever sees of the seed.
func (d *dataset) writeFiles(dir string) error {
	d.snap = filepath.Join(dir, "d1.snap")
	d.text = filepath.Join(dir, "d1.txt")
	if err := snapshot.WriteFile(d.snap, d.db, nil, nil); err != nil {
		return fmt.Errorf("write %s: %w", d.snap, err)
	}
	f, err := os.Create(d.text)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var num []byte
	for _, name := range d.db.Names() {
		for _, row := range d.rows[name] {
			w.WriteString(name)
			w.WriteByte('(')
			for i, v := range row {
				if i > 0 {
					w.WriteString(", ")
				}
				num = strconv.AppendInt(num[:0], v, 10)
				w.Write(num)
			}
			w.WriteString(").\n")
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", d.text, err)
	}
	return f.Close()
}
