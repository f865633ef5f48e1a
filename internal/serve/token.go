package serve

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"errors"
)

// A token is the server's only client-held state, in two kinds that share
// one codec.
//
// A cursor (kind 1) makes paginated enumeration stateless on the server: it
// pins the plan fingerprint (so a cursor cannot be replayed against a
// different query), the database generation it was minted at (so answers
// from two generations are never stitched into one page), and the
// route-native position after the last answer delivered
// (plan.Prepared.EnumerateFrom): the last answer itself on the linear-delay
// route, the odometer index on the ACQ≠ route, the answer offset on every
// other route. Every route resumes there in about one delay, not one delay
// per answer before it. The position is empty — the first answer — only
// when a linear-delay pass was cut before it delivered anything. The server
// keeps nothing per client — resuming after the cached Prepared was evicted
// just re-binds, and the deterministic enumeration order makes the cursor
// meaningful again.
//
// A statement handle (kind 2), minted by POST /v1/prepare, lets a client
// name a statement without resending (or re-parsing) the query text. It
// pins the plan fingerprint and the generation it was minted at, and
// carries no position. A handle resolves through the plan cache's
// fingerprint index, so it survives mutations and in-place refreshes, and
// only dies (410 unknown_handle) when the compiled plan itself has been
// dropped: evicted as the least recently used of more plans than the
// statement cache's bound (maxPrepared), or by a cache reset. Its
// generation is informational
// (clients can log how far behind their handle is); freshness is re-checked
// per request exactly as for query-text requests.
//
// Wire format: base64url( kind | fp | gen | pos | mac ), fp and gen
// fixed-width big-endian uint64 fields, pos the position's bytes (none in a
// handle), and an HMAC-SHA256 tag truncated to 8 bytes under a per-server
// key, so forged or corrupted tokens are rejected before any of their
// fields are trusted. A token's length is fixed by its kind and, for a
// cursor, by the plan it is presented with (an empty position or one of
// the plan's PosLen), so a token of any other length is malformed before
// any base64 work. The leading byte differs per kind, so a handle pasted
// into a cursor field (or vice versa) fails decoding rather than being
// misinterpreted. Tokens live as long as the server's key: the default key
// is drawn per process, so a restart retires every token.
type token struct {
	kind tokenKind
	fp   uint64
	gen  uint64
	pos  []byte // cursors only: the position's bytes
}

// tokenKind is the token's leading wire byte.
type tokenKind uint8

const (
	kindCursor tokenKind = 1
	kindHandle tokenKind = 2
)

// tokenErrs gives each kind its rejection errors.
var tokenErrs = [...]struct{ malformed, forged error }{
	kindCursor: {errors.New("serve: malformed cursor"), errors.New("serve: cursor failed authentication")},
	kindHandle: {errors.New("serve: malformed handle"), errors.New("serve: handle failed authentication")},
}

const (
	tokenHeadLen = 1 + 8 + 8 // kind | fp | gen
	tokenMACLen  = 8
)

func tokenMAC(key, raw []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(raw)
	return m.Sum(nil)[:tokenMACLen]
}

func encodeToken(key []byte, t token) string {
	body := tokenHeadLen + len(t.pos)
	raw := make([]byte, body+tokenMACLen)
	raw[0] = byte(t.kind)
	binary.BigEndian.PutUint64(raw[1:], t.fp)
	binary.BigEndian.PutUint64(raw[9:], t.gen)
	copy(raw[tokenHeadLen:], t.pos)
	copy(raw[body:], tokenMAC(key, raw[:body]))
	return base64.RawURLEncoding.EncodeToString(raw)
}

// decodeToken decodes a token of the given kind whose position is empty or
// posLen bytes: a handle's posLen is 0, a cursor's its plan's PosLen.
func decodeToken(key []byte, kind tokenKind, s string, posLen int) (token, error) {
	errs := &tokenErrs[kind]
	enc := base64.RawURLEncoding
	if len(s) != enc.EncodedLen(tokenHeadLen+tokenMACLen) && len(s) != enc.EncodedLen(tokenHeadLen+posLen+tokenMACLen) {
		return token{}, errs.malformed
	}
	raw, err := enc.DecodeString(s)
	if err != nil || tokenKind(raw[0]) != kind {
		return token{}, errs.malformed
	}
	body := len(raw) - tokenMACLen
	if !hmac.Equal(raw[body:], tokenMAC(key, raw[:body])) {
		return token{}, errs.forged
	}
	return token{
		kind: kind,
		fp:   binary.BigEndian.Uint64(raw[1:]),
		gen:  binary.BigEndian.Uint64(raw[9:]),
		pos:  raw[tokenHeadLen:body],
	}, nil
}
