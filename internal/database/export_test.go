package database

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
