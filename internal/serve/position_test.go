package serve_test

import (
	"encoding/base64"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/serve"
)

// cursorKind is the leading wire byte of a cursor: 1 for an offset
// cursor, 3 for a position cursor.
func cursorKind(t *testing.T, cursor string) byte {
	t.Helper()
	raw, err := base64.RawURLEncoding.DecodeString(cursor)
	if err != nil || len(raw) == 0 {
		t.Fatalf("cursor %q does not decode: %v", cursor, err)
	}
	return raw[0]
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

// TestPositionCursorWalk: on the linear-delay (mm) and ACQ≠ (neq2) shapes,
// every page after the first is resumed by a position cursor, and a walk
// of pages — by query text and by statement handle, at page sizes 1, 7
// and 64 — serves exactly one stream's answers in the stream's order. An
// offset cursor, as a server without position cursors minted it, still
// resumes through the skip to the same suffix. After a mutation a position
// cursor answers 410 stale_cursor.
func TestPositionCursorWalk(t *testing.T) {
	for _, query := range []string{"Q(x,z) :- E(x,y), E(y,z).", "Q(x,y) :- E(x,y), L(y), x != y."} {
		t.Run(query, func(t *testing.T) {
			db := serve.EdgeLabelDB(400)
			h := newHandler(db, serve.Config{})
			stream, tail := streamInOrder(t, h, map[string]interface{}{"query": query})
			if !tail.Done || len(stream) < 100 {
				t.Fatalf("stream of %d answers (%+v): too short to walk", len(stream), tail)
			}
			handle := prepareHandle(t, h, query)
			for _, base := range []map[string]interface{}{{"query": query}, {"handle": handle}} {
				for _, size := range []int{1, 7, 64} {
					if _, cursor := firstPage(t, h, base, size); cursorKind(t, cursor) != 3 {
						t.Fatalf("page size %d: the first page minted a kind-%d cursor, want a position cursor", size, cursorKind(t, cursor))
					}
					pages := pagesInOrder(t, h, base, "", size)
					if !sameWire(pages, stream) {
						t.Fatalf("%v, page size %d: the walk served %d answers, the stream %d, or another order", base, size, len(pages), len(stream))
					}
				}
			}

			// An offset cursor minted for the statement's plan and generation.
			code, out := postJSON(t, h, "/v1/prepare", map[string]interface{}{"query": query})
			if code != http.StatusOK {
				t.Fatalf("prepare: status %d", code)
			}
			var fpHex string
			var gen uint64
			json.Unmarshal(out["fingerprint"], &fpHex)
			json.Unmarshal(out["generation"], &gen)
			fp, err := strconv.ParseUint(fpHex, 16, 64)
			if err != nil {
				t.Fatal(err)
			}
			const offset = 37
			rest := pagesInOrder(t, h, map[string]interface{}{"query": query}, serve.OffsetCursor(testKey, fp, gen, offset), 16)
			if !sameWire(rest, stream[offset:]) {
				t.Fatalf("an offset cursor at %d resumed to %d answers, want the stream's %d after it", offset, len(rest), len(stream)-offset)
			}

			_, cursor := firstPage(t, h, map[string]interface{}{"query": query}, 16)
			mutate(t, h, "E", "insert", 1000, 1000)
			code, out = postJSON(t, h, "/v1/enumerate", map[string]interface{}{"query": query, "cursor": cursor})
			var e string
			json.Unmarshal(out["error"], &e)
			if code != http.StatusGone || e != "stale_cursor" {
				t.Fatalf("a position cursor after a mutation: %d %q, want 410 stale_cursor", code, e)
			}
		})
	}
}

// TestPositionCursorWidth: a position cursor minted for one statement and
// presented with a statement whose positions are of another width is
// malformed, refused before its fingerprint is compared.
func TestPositionCursorWidth(t *testing.T) {
	h := newHandler(serve.EdgeLabelDB(160), serve.Config{})
	_, cursor := firstPage(t, h, map[string]interface{}{"query": "Q(x,y) :- E(x,y), L(y), x != y."}, 4)
	if cursorKind(t, cursor) != 3 {
		t.Fatal("the ACQ≠ route minted no position cursor")
	}
	for _, other := range []string{
		"Q(x,z,w) :- E(x,y), E(y,z), L(w).", // three 8-byte values on the linear-delay route, not one
		"Q(x,y) :- E(x,y), L(y).",           // the constant-delay route: no positions
	} {
		code, out := postJSON(t, h, "/v1/enumerate", map[string]interface{}{"query": other, "cursor": cursor})
		var e string
		json.Unmarshal(out["error"], &e)
		if code != http.StatusBadRequest || e != "bad_cursor" {
			t.Fatalf("%s with an ACQ≠ position cursor: %d %q, want 400 bad_cursor", other, code, e)
		}
	}
}
