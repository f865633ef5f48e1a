package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/database"
)

// The answer encoder. An answer leaves a constant-delay enumerator in about
// 100 ns; through encoding/json (a map, a slice and a reflection walk per
// line) it cost about ten times that to put on the wire. Answers are instead
// appended as JSON text straight into a pooled byte buffer, and a stream
// writes and flushes that buffer once per chunkSize bytes. The bytes are the
// ones encoding/json writes for the same values (wire_test.go pins them):
// numbers come from strconv exactly as encoding/json prints an int64 or
// uint64, and the only strings written are base64url cursors, which need no
// escaping. One-off records (a stream's terminal line) still go through
// encoding/json, from typed structs whose fields are declared in the key
// order encoding/json gives a map.

// chunkSize is how many encoded bytes a stream buffers before it writes and
// flushes them: one system call per chunk, not per answer.
const chunkSize = 32 << 10

// A pooled buffer has room for a chunk and the line that crosses it. A page
// is buffered whole, so it may grow a buffer past that; buffers larger than
// maxPooled are left to the collector rather than kept.
const (
	bufCap    = chunkSize + 4<<10
	maxPooled = 4 * chunkSize
)

var bufPool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, bufCap)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooled {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// appendTuple appends t as a JSON array of integers; arity 0 is [].
func appendTuple(b []byte, t database.Tuple) []byte {
	b = append(b, '[')
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// appendAnswerLine appends one stream line: {"answer":[…]}\n.
func appendAnswerLine(b []byte, t database.Tuple) []byte {
	b = append(b, `{"answer":`...)
	b = appendTuple(b, t)
	return append(b, "}\n"...)
}

// A page body is pageHead, the answers separated by commas, then
// appendPageTail: {"answers":[…],"done":…,"generation":…[,"next_cursor":"…"]}\n.
const pageHead = `{"answers":[`

func appendPageTail(b []byte, done bool, gen uint64, cursor string) []byte {
	b = append(b, `],"done":`...)
	b = strconv.AppendBool(b, done)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, gen, 10)
	if !done {
		b = append(b, `,"next_cursor":"`...)
		b = append(b, cursor...)
		b = append(b, '"')
	}
	return append(b, "}\n"...)
}

// streamDone and streamCut are a stream's terminal records: it finished
// after Count answers, or a deadline (or the client) cut it and Cursor
// resumes it.
type streamDone struct {
	Count int64 `json:"count"`
	Done  bool  `json:"done"`
}

type streamCut struct {
	Cursor    string `json:"cursor"`
	Detail    string `json:"detail"`
	Error     string `json:"error"`
	Truncated bool   `json:"truncated"`
}

// appendRecord appends v as one JSON line, as json.Encoder.Encode writes it.
func appendRecord(b []byte, v interface{}) []byte {
	j, _ := json.Marshal(v) // the records above always marshal
	b = append(b, j...)
	return append(b, '\n')
}

// chunkWriter sends a stream's buffered lines to the client a chunk at a
// time.
type chunkWriter struct {
	w http.ResponseWriter
	f http.Flusher // nil when w cannot flush
	b []byte
}

// write sends the buffered bytes and empties the buffer; flush also pushes
// them to the client at once. false means the client is gone.
func (c *chunkWriter) write(flush bool) bool {
	_, err := c.w.Write(c.b)
	c.b = c.b[:0]
	if err != nil {
		return false
	}
	if flush && c.f != nil {
		c.f.Flush()
	}
	return true
}
