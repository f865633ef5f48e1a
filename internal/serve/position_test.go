package serve_test

import (
	"encoding/base64"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/database"
	"repro/internal/serve"
)

// cursorWidth is the width of the position a cursor carries: its decoded
// length less the kind byte, fingerprint, generation and tag.
func cursorWidth(t *testing.T, cursor string) int {
	t.Helper()
	raw, err := base64.RawURLEncoding.DecodeString(cursor)
	if err != nil || len(raw) < 25 || raw[0] != 1 {
		t.Fatalf("cursor %q does not decode to a cursor: %v", cursor, err)
	}
	return len(raw) - 25
}

// firstPage requests the first page of limit answers of the statement
// named by base and returns its answers and next cursor.
func firstPage(t *testing.T, h http.Handler, base map[string]interface{}, limit int) ([][]int64, string) {
	t.Helper()
	body := map[string]interface{}{"limit": limit}
	for k, v := range base {
		body[k] = v
	}
	code, out := postJSON(t, h, "/v1/enumerate", body)
	if code != http.StatusOK {
		t.Fatalf("first page: status %d: %s", code, out["error"])
	}
	var answers [][]int64
	var cursor string
	json.Unmarshal(out["answers"], &answers)
	json.Unmarshal(out["next_cursor"], &cursor)
	return answers, cursor
}

// positionDB is the edge-label database with the clique T beside it, over
// which the triangle query has 12·11·10 answers.
func positionDB() *database.Database {
	db := serve.EdgeLabelDB(400)
	db.AddRelation(serve.CliqueRelation("T", 12))
	return db
}

// TestPositionCursorWalk: on the linear-delay (mm), ACQ≠ (neq2),
// backtracking (a triangle) and constant-delay shapes, every page after
// the first is resumed by the cursor of the page before it, which carries
// the route's own position, and a walk of pages — by query text and by
// statement handle, at page sizes 1, 7 and 64 — serves exactly one
// stream's answers in the stream's order. After a mutation a cursor
// answers 410 stale_cursor.
func TestPositionCursorWalk(t *testing.T) {
	for _, c := range []struct {
		query string
		width int
	}{
		{"Q(x,z) :- E(x,y), E(y,z).", 16},
		{"Q(x,y) :- E(x,y), L(y), x != y.", 8},
		{"Q(x,y,z) :- T(x,y), T(y,z), T(z,x).", 8},
		{"Q(x,y) :- E(x,y), L(y).", 8},
	} {
		t.Run(c.query, func(t *testing.T) {
			h := newHandler(positionDB(), serve.Config{})
			stream, tail := streamInOrder(t, h, map[string]interface{}{"query": c.query})
			if !tail.Done || len(stream) < 100 {
				t.Fatalf("stream of %d answers (%+v): too short to walk", len(stream), tail)
			}
			handle := prepareHandle(t, h, c.query)
			for _, base := range []map[string]interface{}{{"query": c.query}, {"handle": handle}} {
				for _, size := range []int{1, 7, 64} {
					if _, cursor := firstPage(t, h, base, size); cursorWidth(t, cursor) != c.width {
						t.Fatalf("page size %d: the first page minted a cursor of a %d-byte position, want %d", size, cursorWidth(t, cursor), c.width)
					}
					pages := pagesInOrder(t, h, base, "", size)
					if !sameWire(pages, stream) {
						t.Fatalf("%v, page size %d: the walk served %d answers, the stream %d, or another order", base, size, len(pages), len(stream))
					}
				}
			}

			_, cursor := firstPage(t, h, map[string]interface{}{"query": c.query}, 16)
			mutate(t, h, "E", "insert", 1000, 1000)
			code, out := postJSON(t, h, "/v1/enumerate", map[string]interface{}{"query": c.query, "cursor": cursor})
			var e string
			json.Unmarshal(out["error"], &e)
			if code != http.StatusGone || e != "stale_cursor" {
				t.Fatalf("a cursor after a mutation: %d %q, want 410 stale_cursor", code, e)
			}
		})
	}
}

// TestPositionCursorWidth: a cursor presented with a statement whose
// positions are of another width is malformed, refused before its
// fingerprint is compared; one of the same width minted for another
// statement is refused by its fingerprint.
func TestPositionCursorWidth(t *testing.T) {
	h := newHandler(positionDB(), serve.Config{})
	const (
		mm   = "Q(x,z) :- E(x,y), E(y,z)."       // two 8-byte values on the linear-delay route
		neq2 = "Q(x,y) :- E(x,y), L(y), x != y." // one on the ACQ≠ route
	)
	_, mmCursor := firstPage(t, h, map[string]interface{}{"query": mm}, 4)
	_, neqCursor := firstPage(t, h, map[string]interface{}{"query": neq2}, 4)
	for _, c := range []struct{ cursor, query, want string }{
		{neqCursor, mm, "bad_cursor"},
		{neqCursor, "Q(x,z,w) :- E(x,y), E(y,z), L(w).", "bad_cursor"}, // three values
		{mmCursor, neq2, "bad_cursor"},
		{neqCursor, "Q(x,y) :- E(x,y), L(y).", "cursor_mismatch"},             // an offset on the constant-delay route
		{neqCursor, "Q(x,y,z) :- T(x,y), T(y,z), T(z,x).", "cursor_mismatch"}, // an offset on the backtracking route
	} {
		code, out := postJSON(t, h, "/v1/enumerate", map[string]interface{}{"query": c.query, "cursor": c.cursor})
		var e string
		json.Unmarshal(out["error"], &e)
		if code != http.StatusBadRequest || e != c.want {
			t.Fatalf("%s with a cursor of a %d-byte position: %d %q, want 400 %s", c.query, cursorWidth(t, c.cursor), code, e, c.want)
		}
	}
}
