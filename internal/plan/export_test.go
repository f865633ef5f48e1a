package plan

// Compiles returns how many compiles the cache has run.
func (c *Cache) Compiles() uint64 { return c.compiles.Load() }

// PlanLen returns the number of cached plans.
func (c *Cache) PlanLen() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nplans
}
