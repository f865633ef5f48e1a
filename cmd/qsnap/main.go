// Command qsnap builds and inspects out-of-core database snapshots: the
// versioned, checksummed binary files qservd/qeval/qbench accept wherever
// a fact file is accepted, and which start serving by mmap instead of a
// text parse.
//
// Usage:
//
//	qsnap -data facts.txt -o facts.snap                 # snapshot a fact file
//	qsnap -data facts.txt -index edge:0 -index edge:0,1 # prebuild CSR indexes
//	qsnap -info facts.snap                              # print a snapshot's contents
//
// The output is written atomically (temp file + rename), so a serving
// daemon never maps a half-written snapshot. Section kind 5 (the hash-shard
// partitions of the removed -shard flag) is reserved: files that carry it
// still open, the section is checksum-verified and ignored.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/database"
	"repro/internal/snapshot"
)

// listFlag collects a repeatable string flag.
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	dataPath := flag.String("data", "", "fact file (or snapshot) to load")
	out := flag.String("o", "", "output snapshot path")
	info := flag.String("info", "", "print the contents of an existing snapshot and exit")
	var indexes listFlag
	flag.Var(&indexes, "index", "prebuild a CSR index: rel:col[,col...] (repeatable)")
	flag.Parse()

	if *info != "" {
		printInfo(*info)
		return
	}
	if *out == "" || *dataPath == "" {
		fmt.Fprintln(os.Stderr, "qsnap: -data and -o are required")
		flag.Usage()
		os.Exit(2)
	}
	db, dict, _, err := core.LoadPath(*dataPath)
	if err != nil {
		fatal(err)
	}

	opts := &snapshot.Options{Indexes: map[string][][]int{}}
	for _, spec := range indexes {
		rel, cols, err := parseCols(spec)
		if err != nil {
			fatal(fmt.Errorf("-index %s: %w", spec, err))
		}
		checkRelation(db, rel, cols)
		opts.Indexes[rel] = append(opts.Indexes[rel], cols)
	}
	if err := snapshot.WriteFile(*out, db, dict, opts); err != nil {
		fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("qsnap: wrote %s (%d bytes, %d relations, %d rows, generation %d)\n",
		*out, st.Size(), len(db.Names()), totalRows(db), db.Generation())
}

// parseCols splits "rel:c0,c1,..." into a relation name and column list.
func parseCols(spec string) (string, []int, error) {
	ps := strings.SplitN(spec, ":", 2)
	if len(ps) != 2 || ps[0] == "" {
		return "", nil, fmt.Errorf("want rel:col[,col...]")
	}
	var cols []int
	for _, s := range strings.Split(ps[1], ",") {
		c, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || c < 0 {
			return "", nil, fmt.Errorf("bad column %q", s)
		}
		cols = append(cols, c)
	}
	return ps[0], cols, nil
}

func totalRows(db *database.Database) int {
	n := 0
	for _, name := range db.Names() {
		n += db.Relation(name).Len()
	}
	return n
}

func checkRelation(db *database.Database, rel string, cols []int) {
	r := db.Relation(rel)
	if r == nil {
		fatal(fmt.Errorf("unknown relation %q (have %v)", rel, db.Names()))
	}
	for _, c := range cols {
		if c >= r.Arity {
			fatal(fmt.Errorf("column %d out of range for %s (arity %d)", c, rel, r.Arity))
		}
	}
}

func printInfo(path string) {
	s, err := snapshot.Open(path)
	if err != nil {
		fatal(err)
	}
	defer s.Close()
	db := s.Database()
	fmt.Printf("%s: %d relations, %d rows, generation %d, dictionary %d names, mapped=%v\n",
		path, len(db.Names()), totalRows(db), db.Generation(), s.Dictionary().Len(), s.Mapped())
	for _, name := range db.Names() {
		r := db.Relation(name)
		line := fmt.Sprintf("  %-16s arity %d, %8d rows, gen %d", name, r.Arity, r.Len(), r.Generation())
		if r.Sorted() {
			line += ", sorted"
		}
		fmt.Println(line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qsnap:", err)
	os.Exit(1)
}
