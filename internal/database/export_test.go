package database

// Buckets returns the number of distinct keys in the index.
func (ix *Index) Buckets() int { return ix.tab.used }
