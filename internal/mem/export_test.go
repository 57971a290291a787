package mem

import "thermostat/internal/addr"

// ReadLatency returns the device read latency for the tier owning p.
func (s *System) ReadLatency(p addr.Phys) int64 {
	return s.Tier(s.TierOf(p)).spec.ReadLatency
}
