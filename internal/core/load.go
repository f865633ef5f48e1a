// Package core keeps the loaders bench/ imports: LoadFacts, LoadPath and
// FormatTuple. Queries run through internal/plan (Compile → Bind → Execute).
package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/database"
)

// LoadFacts reads a database in fact syntax, one fact per line:
//
//	edge(alice, bob).
//	age(alice, 31).
//	# comments and blank lines are skipped
//
// Symbolic constants are interned through the dictionary; integers are
// used verbatim as values. The trailing period is optional.
func LoadFacts(r io.Reader, dict *database.Dictionary) (*database.Database, error) {
	db := database.NewDatabase()
	pending := make(map[string][]database.Tuple)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		line = strings.TrimSuffix(line, ".")
		open := strings.IndexByte(line, '(')
		if open <= 0 || !strings.HasSuffix(line, ")") {
			return nil, fmt.Errorf("core: line %d: want pred(arg,...), got %q", lineNo, line)
		}
		pred := strings.TrimSpace(line[:open])
		if pred == "" {
			return nil, fmt.Errorf("core: line %d: missing predicate name in %q", lineNo, line)
		}
		argsStr := line[open+1 : len(line)-1]
		var args []string
		if strings.TrimSpace(argsStr) != "" {
			args = strings.Split(argsStr, ",")
		}
		tuple := make(database.Tuple, len(args))
		for i, a := range args {
			a = strings.TrimSpace(a)
			if a == "" {
				return nil, fmt.Errorf("core: line %d: empty argument %d of %s", lineNo, i+1, pred)
			}
			if n, err := strconv.ParseInt(a, 10, 64); err == nil {
				tuple[i] = database.Value(n)
			} else {
				tuple[i] = dict.Intern(a)
			}
		}
		rel := db.Relation(pred)
		if rel == nil {
			rel = database.NewRelation(pred, len(tuple))
			db.AddRelation(rel)
		}
		// The arity check runs per line — not deferred to the batch insert —
		// so a malformed input file surfaces as an error with line context,
		// never a crash or an end-of-load error pointing at nothing.
		if rel.Arity != len(tuple) {
			return nil, fmt.Errorf("core: line %d: %s used with arity %d and %d", lineNo, pred, rel.Arity, len(tuple))
		}
		pending[pred] = append(pending[pred], tuple)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Land each relation's rows as one batch: a load is O(1) generation
	// steps per relation, not one per fact line.
	for _, name := range db.Names() {
		rel := db.Relation(name)
		if err := rel.InsertBatch(pending[name]); err != nil {
			return nil, fmt.Errorf("core: loading %s: %w", name, err)
		}
		rel.Dedup()
	}
	return db, nil
}

// FormatTuple renders an answer tuple, translating interned values back to
// their names.
func FormatTuple(t database.Tuple, dict *database.Dictionary) string {
	parts := make([]string, len(t))
	for i, v := range t {
		name := dict.Name(v)
		if strings.HasPrefix(name, "?") {
			parts[i] = strconv.FormatInt(int64(v), 10)
		} else {
			parts[i] = name
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
