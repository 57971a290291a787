package cache

import "thermostat/internal/stats"

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() {
	c.hits, c.misses = stats.Counter{}, stats.Counter{}
}
