package flight

// Busy reports whether key has a computation in flight.
func (g *Group[K, V]) Busy(key K) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.calls[key]
	return ok
}
