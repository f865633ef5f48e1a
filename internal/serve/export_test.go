package serve

import (
	"net/http/httptest"
	"testing"

	"repro/internal/logic"
	"repro/internal/plan"
)

// EdgeLabelDB is edgeLabelDB for the external tests.
var EdgeLabelDB = edgeLabelDB

// CliqueRelation is cliqueRelation for the external tests.
var CliqueRelation = cliqueRelation

// CutStream streams query's answers from s's warm statement under a
// deadline that passes once the first chunk is written, as
// TestTruncationCursorResumes cuts its streams, and returns the answers
// served, as JSON arrays, with the truncation cursor.
func CutStream(t *testing.T, s *Server, query string) ([]string, string) {
	t.Helper()
	q, err := logic.ParseCQ(query)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.cache.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	var prefix []string
	var cut streamRecord
	warm, _ := s.runWarm(p, func(pr *plan.Prepared) error {
		ctx := newCutCtx(false)
		w := &failingWriter{ResponseRecorder: httptest.NewRecorder(), ok: 1, gone: ctx.fire}
		prefix, cut = streamFrom(t, s, ctx, w, pr, token{})
		return nil
	})
	if !warm {
		t.Fatalf("%s is not bound at the current generation", query)
	}
	if !cut.Truncated || cut.Cursor == "" {
		t.Fatalf("a stream cut after its first chunk ended with %+v", cut)
	}
	return prefix, cut.Cursor
}
