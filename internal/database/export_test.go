package database

import "encoding/binary"

// StringKey is the tests' reference encoding of t's projection onto cols,
// independent of the fingerprint table: injective for a fixed len(cols).
func StringKey(t Tuple, cols []int) string {
	b := make([]byte, 0, 8*len(cols))
	for _, c := range cols {
		b = binary.BigEndian.AppendUint64(b, uint64(t[c]))
	}
	return string(b)
}

// Buckets returns the number of distinct keys in the index.
func (ix *Index) Buckets() int { return ix.tab.used }

// CachedIndexes returns the indexes in r's own cache.
func (r *Relation) CachedIndexes() []*Index {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*Index
	for _, ix := range r.indexes {
		out = append(out, ix)
	}
	return out
}

// Layout returns ix's CSR layout, as DumpIndex does a fresh build's.
func (ix *Index) Layout() IndexCSR { return ix.csr() }
