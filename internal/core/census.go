package core

import (
	"sort"
	"sync"

	"thermostat/internal/addr"
)

// PageClass is one huge page's classification in a published Census.
type PageClass struct {
	Base        addr.Virt
	RatePerSec  float64
	Cold        bool
	Quarantined bool
}

// Census is a read-side snapshot of one engine's placement state, built on
// the simulation goroutine at the end of a tick and handed out by copy.
// The observability plane's /dump endpoint renders it; nothing in the
// engine reads it back, so publishing cannot perturb a run.
type Census struct {
	TimeNs      int64
	Name        string // engine display name (tracker+policy)
	Periods     uint64
	Stats       Stats
	SlowdownPct float64
	Inflight    int
	Pages       []PageClass // sorted by Base
}

// censusPub holds the engine's published census behind its own mutex so
// HTTP handler goroutines never touch live engine state.
type censusPub struct {
	mu sync.Mutex
	c  *Census
}

// EnablePublish turns on census publishing: every subsequent Tick snapshots
// the engine's classification state into a mutex-guarded copy retrievable
// with PublishedCensus. Off by default — default runs do no extra work
// beyond one atomic load per tick.
func (e *Engine) EnablePublish() { e.publish.Store(true) }

// PublishedCensus returns a copy of the most recently published census.
// Safe to call from any goroutine; ok is false until the first published
// tick (or always, if EnablePublish was never called).
func (e *Engine) PublishedCensus() (Census, bool) {
	e.pub.mu.Lock()
	defer e.pub.mu.Unlock()
	if e.pub.c == nil {
		return Census{}, false
	}
	c := *e.pub.c
	c.Pages = append([]PageClass(nil), e.pub.c.Pages...)
	return c, true
}

// publishCensus builds and stores the census. Called from Tick on the
// simulation goroutine only; all reads here are the same ones the
// reporting accessors perform, so the published copy is pure observation.
func (e *Engine) publishCensus(now int64) {
	pages := make([]PageClass, 0, len(e.lastEstimates))
	for _, est := range e.lastEstimates {
		_, benched := e.led.quarUntil[est.Base]
		pages = append(pages, PageClass{
			Base:        est.Base,
			RatePerSec:  est.Rate,
			Cold:        e.led.cold[est.Base],
			Quarantined: benched,
		})
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].Base < pages[j].Base })
	c := &Census{
		TimeNs:      now,
		Name:        e.name,
		Periods:     e.led.periods.Value(),
		Stats:       e.Stats(),
		SlowdownPct: e.EstimatedSlowdownPct(),
		Inflight:    e.InflightPages(),
		Pages:       pages,
	}
	e.pub.mu.Lock()
	e.pub.c = c
	e.pub.mu.Unlock()
}
