package daemon

import "thermostat/internal/telemetry"

// health is the daemon's position on the graceful-degradation ladder.
// The ladder replaces "retry until quarantine, then shrug" with bounded,
// observable backpressure: each rung sheds a class of work, and hysteresis
// (RecoverAfter ≫ DegradeAfter by default) keeps a flapping fault source
// from bouncing the daemon between rungs every epoch.
type health int

const (
	// healthy: full operation.
	healthy health = iota
	// degraded: scan intervals widened by WidenFactor and fine-grained
	// telemetry events shed, trading fidelity for reduced daemon work
	// while faults persist. Migrations still run.
	degraded
	// quarantineOnly: the engine is frozen — tracking continues so
	// recovery has fresh estimates, but no new migrations start. Pages
	// already quarantined serve out their sentences.
	quarantineOnly
	// halted: the run is stopped at an epoch boundary; telemetry is
	// flushed and the daemon exits nonzero. Terminal.
	halted
)

// String returns the health name used in /status, slog and the gate script.
func (h health) String() string {
	switch h {
	case healthy:
		return "healthy"
	case degraded:
		return "degraded"
	case quarantineOnly:
		return "quarantine-only"
	case halted:
		return "halted"
	}
	return "unknown"
}

// ladder is the degradation state machine. It is driven once per epoch with
// a single bit — did chaos activity grow this epoch? (in quarantine-only,
// where a frozen engine cannot fault: does quarantine pressure persist?) —
// and is therefore a pure function of the epoch fault sequence: a replayed
// run walks the same rungs at the same epochs, which the checkpoint digest
// and the reload-vs-cold-start differential test rely on.
type ladder struct {
	cfg    degradeConfig
	health health
	faulty int // consecutive faulty epochs at the current rung
	clean  int // consecutive clean epochs at the current rung
}

// observe feeds one epoch's verdict and returns the (possibly new) health
// plus whether a transition happened. Counters reset on every transition
// and whenever the epoch kind flips, so each rung demands a fresh
// consecutive streak.
func (l *ladder) observe(faultyEpoch bool) (health, bool) {
	if l.cfg.Disabled || l.health == halted {
		return l.health, false
	}
	if faultyEpoch {
		l.clean = 0
		l.faulty++
		var threshold int
		switch l.health {
		case healthy:
			threshold = l.cfg.DegradeAfter
		case degraded:
			threshold = l.cfg.QuarantineAfter
		case quarantineOnly:
			threshold = l.cfg.HaltAfter // 0 = never halt
		}
		if threshold > 0 && l.faulty >= threshold {
			l.health++
			l.faulty, l.clean = 0, 0
			return l.health, true
		}
		return l.health, false
	}
	l.faulty = 0
	if l.health == healthy {
		return l.health, false
	}
	l.clean++
	if l.cfg.RecoverAfter > 0 && l.clean >= l.cfg.RecoverAfter {
		l.health--
		l.faulty, l.clean = 0, 0
		return l.health, true
	}
	return l.health, false
}

// shedRecorder sits between the simulation and the run's telemetry chain.
// While the ladder sits below healthy it drops the high-volume decision
// events (samples, classifications, migrations, splits) but keeps the
// epoch brackets and chaos faults, so exports stay epoch-complete and the
// fault story stays visible while the daemon sheds load. The shed bit is
// flipped only from the tick hook — the same goroutine that records — so
// no locking is needed, and because ladder transitions are deterministic
// in virtual time, shedding is too.
type shedRecorder struct {
	inner telemetry.Recorder
	shed  bool
}

func (s *shedRecorder) Event(e telemetry.Event) {
	if s.shed {
		switch e.Kind {
		case telemetry.KindEpochStart, telemetry.KindEpochEnd, telemetry.KindChaosFault:
		default:
			return
		}
	}
	s.inner.Event(e)
}

func (s *shedRecorder) Snapshot(snap telemetry.Snapshot) { s.inner.Snapshot(snap) }
