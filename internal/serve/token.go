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
// A cursor makes paginated enumeration stateless on the server: it pins the
// plan fingerprint (so a cursor cannot be replayed against a different
// query), the database generation it was minted at (so answers from two
// generations are never stitched into one page), and the offset of the next
// answer. The server keeps nothing per client — resuming after the cached
// Prepared was evicted just re-binds, and the deterministic enumeration
// order makes the offset meaningful again.
//
// A statement handle, minted by POST /v1/prepare, lets a client name a
// statement without resending (or re-parsing) the query text. It pins the
// plan fingerprint and the generation it was minted at, and carries no
// offset. A handle resolves through the plan cache's fingerprint index, so
// it survives mutations and in-place refreshes, and only dies (410
// unknown_handle) when the compiled plan itself has been dropped, e.g.
// after a cache reset. Its generation is informational (clients can log how
// far behind their handle is); freshness is re-checked per request exactly
// as for query-text requests.
//
// Wire format: base64url( kind | fp | gen | [offset] | mac ), fixed-width
// big-endian uint64 fields and an HMAC-SHA256 tag truncated to 8 bytes
// under a per-server key, so forged or corrupted tokens are rejected before
// any of their fields are trusted. The leading byte differs per kind, so a
// handle pasted into a cursor field (or vice versa) fails decoding rather
// than being misinterpreted.
type token struct {
	kind   tokenKind
	fp     uint64
	gen    uint64
	offset uint64 // cursors only
}

// tokenKind is the token's leading wire byte.
type tokenKind uint8

const (
	kindCursor tokenKind = 1
	kindHandle tokenKind = 2
)

// tokenSpecs gives each kind its field count, the cap on its encoded form
// (well above the legitimate 44 and 34 bytes, so oversized inputs are
// refused before base64 work), and its rejection errors.
var tokenSpecs = [...]struct {
	fields    int
	maxLen    int
	malformed error
	forged    error
}{
	kindCursor: {3, 128, errors.New("serve: malformed cursor"), errors.New("serve: cursor failed authentication")},
	kindHandle: {2, 64, errors.New("serve: malformed handle"), errors.New("serve: handle failed authentication")},
}

const tokenMACLen = 8

func tokenMAC(key, raw []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(raw)
	return m.Sum(nil)[:tokenMACLen]
}

func encodeToken(key []byte, t token) string {
	body := 1 + 8*tokenSpecs[t.kind].fields
	raw := make([]byte, body+tokenMACLen)
	raw[0] = byte(t.kind)
	binary.BigEndian.PutUint64(raw[1:], t.fp)
	binary.BigEndian.PutUint64(raw[9:], t.gen)
	if t.kind == kindCursor {
		binary.BigEndian.PutUint64(raw[17:], t.offset)
	}
	copy(raw[body:], tokenMAC(key, raw[:body]))
	return base64.RawURLEncoding.EncodeToString(raw)
}

func decodeToken(key []byte, kind tokenKind, s string) (token, error) {
	spec := &tokenSpecs[kind]
	if len(s) > spec.maxLen {
		return token{}, spec.malformed
	}
	body := 1 + 8*spec.fields
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil || len(raw) != body+tokenMACLen || raw[0] != byte(kind) {
		return token{}, spec.malformed
	}
	if !hmac.Equal(raw[body:], tokenMAC(key, raw[:body])) {
		return token{}, spec.forged
	}
	t := token{
		kind: kind,
		fp:   binary.BigEndian.Uint64(raw[1:]),
		gen:  binary.BigEndian.Uint64(raw[9:]),
	}
	if kind == kindCursor {
		t.offset = binary.BigEndian.Uint64(raw[17:])
	}
	return t, nil
}
