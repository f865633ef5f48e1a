package serve

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"errors"
)

// A token is the server's only client-held state, in three kinds that
// share one codec.
//
// A cursor makes paginated enumeration stateless on the server: it pins the
// plan fingerprint (so a cursor cannot be replayed against a different
// query), the database generation it was minted at (so answers from two
// generations are never stitched into one page), and where the next page
// starts. The server keeps nothing per client — resuming after the cached
// Prepared was evicted just re-binds, and the deterministic enumeration
// order makes the cursor meaningful again. A cursor says where to start in
// one of two ways:
//
//   - an offset cursor (kind 1) carries the offset of the next answer. The
//     constant-delay route seeks it; a route without positions enumerates
//     and discards that many answers.
//   - a position cursor (kind 3) carries the route-native position after
//     the last answer delivered (plan.Prepared.EnumerateFrom): the last
//     answer itself on the linear-delay route, the odometer index on the
//     ACQ≠ route. Those two routes mint it, so a deep page costs about one
//     delay instead of one delay per answer before it. Its width is the
//     plan's PosLen, at most maxPosArity values; a statement with a wider
//     head keeps offset cursors.
//
// Kind-1 cursors minted by a server that had no kind 3 still decode and
// resume through the skip.
//
// A statement handle (kind 2), minted by POST /v1/prepare, lets a client
// name a statement without resending (or re-parsing) the query text. It
// pins the plan fingerprint and the generation it was minted at, and
// carries no offset. A handle resolves through the plan cache's
// fingerprint index, so it survives mutations and in-place refreshes, and
// only dies (410 unknown_handle) when the compiled plan itself has been
// dropped, e.g. after a cache reset. Its generation is informational
// (clients can log how far behind their handle is); freshness is re-checked
// per request exactly as for query-text requests.
//
// Wire format: base64url( kind | fp | gen | [offset | pos] | mac ),
// fixed-width big-endian uint64 fields, pos the position's bytes, and an
// HMAC-SHA256 tag truncated to 8 bytes under a per-server key, so forged or
// corrupted tokens are rejected before any of their fields are trusted. A
// position cursor's length is fixed by the plan it is presented with: one
// of another width is malformed before its tag is even checked. The
// leading byte differs per kind, so a handle pasted into a cursor field
// (or vice versa) fails decoding rather than being misinterpreted.
type token struct {
	kind   tokenKind
	fp     uint64
	gen    uint64
	offset uint64 // offset cursors only
	pos    string // position cursors only: the position's bytes
}

// tokenKind is the token's leading wire byte.
type tokenKind uint8

const (
	kindCursor tokenKind = 1 // offset cursor
	kindHandle tokenKind = 2
	kindPos    tokenKind = 3 // position cursor
)

// maxPosArity bounds the head arity a position cursor serves, and so its
// length.
const maxPosArity = 16

var (
	errMalformedCursor = errors.New("serve: malformed cursor")
	errForgedCursor    = errors.New("serve: cursor failed authentication")
)

// tokenSpecs gives each kind its fixed field count, the cap on its encoded
// form (well above the legitimate 44 and 34 bytes, and 204 for a position
// of maxPosArity values, so oversized inputs are refused before base64
// work), and its rejection errors; both cursor kinds share theirs.
var tokenSpecs = [...]struct {
	fields    int
	maxLen    int
	malformed error
	forged    error
}{
	kindCursor: {3, 128, errMalformedCursor, errForgedCursor},
	kindHandle: {2, 64, errors.New("serve: malformed handle"), errors.New("serve: handle failed authentication")},
	kindPos:    {2, 256, errMalformedCursor, errForgedCursor},
}

const tokenMACLen = 8

func tokenMAC(key, raw []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(raw)
	return m.Sum(nil)[:tokenMACLen]
}

func encodeToken(key []byte, t token) string {
	body := 1 + 8*tokenSpecs[t.kind].fields + len(t.pos)
	raw := make([]byte, body+tokenMACLen)
	raw[0] = byte(t.kind)
	binary.BigEndian.PutUint64(raw[1:], t.fp)
	binary.BigEndian.PutUint64(raw[9:], t.gen)
	switch t.kind {
	case kindCursor:
		binary.BigEndian.PutUint64(raw[17:], t.offset)
	case kindPos:
		copy(raw[17:], t.pos)
	}
	copy(raw[body:], tokenMAC(key, raw[:body]))
	return base64.RawURLEncoding.EncodeToString(raw)
}

// decodeToken decodes a token of the given kind. A cursor field takes both
// cursor kinds: asked for kindCursor it also accepts a position cursor
// whose position is posLen bytes, and refuses one when posLen is 0.
func decodeToken(key []byte, kind tokenKind, s string, posLen int) (token, error) {
	spec := &tokenSpecs[kind]
	limit := spec.maxLen
	if kind == kindCursor && posLen > 0 {
		limit = max(limit, tokenSpecs[kindPos].maxLen)
	}
	if len(s) > limit {
		return token{}, spec.malformed
	}
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil || len(raw) == 0 {
		return token{}, spec.malformed
	}
	got := tokenKind(raw[0])
	if got == kindPos && kind == kindCursor && posLen > 0 {
		spec = &tokenSpecs[kindPos]
	} else if got != kind {
		return token{}, spec.malformed
	} else {
		posLen = 0
	}
	body := 1 + 8*spec.fields + posLen
	if len(s) > spec.maxLen || len(raw) != body+tokenMACLen {
		return token{}, spec.malformed
	}
	if !hmac.Equal(raw[body:], tokenMAC(key, raw[:body])) {
		return token{}, spec.forged
	}
	t := token{
		kind: got,
		fp:   binary.BigEndian.Uint64(raw[1:]),
		gen:  binary.BigEndian.Uint64(raw[9:]),
	}
	switch got {
	case kindCursor:
		t.offset = binary.BigEndian.Uint64(raw[17:])
	case kindPos:
		t.pos = string(raw[17:body])
	}
	return t, nil
}
