package addr

// Overlaps reports whether r and o share any address.
func (r Range) Overlaps(o Range) bool {
	return r.Start < o.End && o.Start < r.End
}
