package stats

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for b := range h.buckets {
		for s := range h.buckets[b] {
			h.buckets[b][s] += other.buckets[b][s]
		}
	}
}

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }
