package rescache

// newWithLimit builds a Cache that keeps at most limit entries, so
// tests can reach the LRU bound without storing maxEntries results.
func newWithLimit(limit int) *Cache {
	c := New()
	c.limit = limit
	return c
}
