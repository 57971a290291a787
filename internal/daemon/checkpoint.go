package daemon

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"thermostat/internal/core"
	"thermostat/internal/sim"
)

// checkpointVersion guards the snapshot format; a restore from a different
// version is rejected rather than misread.
const checkpointVersion = 1

// timelineEntry is one applied configuration change, stamped with the
// virtual time and epoch of the tick boundary it took effect at. The
// timeline is the daemon's reload journal: a cold start fed the same
// timeline applies the same changes at the same virtual instants, making a
// live SIGHUP byte-identical to a scripted one (the differential test's
// contract), and a restore replays the journal to reconstruct state.
type timelineEntry struct {
	ApplyAtNs int64  `json:"apply_at_ns"`
	Epoch     uint64 `json:"epoch"`
	Config    Config `json:"config"`
}

// Checkpoint is the crash-safety snapshot. Rather than serializing page
// tables, TLBs and tracker pipelines, it captures the run's deterministic
// closure — the start config, the reload timeline, and how far the run got
// — plus a digest of the live state at that epoch. A restore re-runs the
// seeded simulation from scratch with the journal preloaded, verifies the
// digest when it reaches SavedAtEpoch (proving the replayed state is the
// state that was checkpointed), and continues as the live run. Replay costs
// wall time but no fidelity: this is the same trick as write-ahead-log
// recovery, with the "log" being the seed plus the config timeline.
type Checkpoint struct {
	Version      int             `json:"version"`
	SavedAtEpoch uint64          `json:"saved_at_epoch"`
	VirtualNs    int64           `json:"virtual_ns"`
	Digest       string          `json:"digest"`
	Config       Config          `json:"config"`
	Timeline     []timelineEntry `json:"timeline,omitempty"`
}

// stateDigest fingerprints the simulation at an epoch boundary: virtual
// clock, machine counters, engine counters, fault handling, and the
// telemetry event count. Every input is deterministic in virtual time, so
// equal digests at equal epochs mean the replay walked the same state.
func stateDigest(epoch uint64, now int64, m *sim.Machine, eng *core.Engine, events int) string {
	h := fnv.New64a()
	mm := m.Metrics()
	st := eng.Stats()
	fr := eng.FaultReport()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d",
		epoch, now,
		mm.Accesses, mm.SlowAccesses, mm.PoisonFaults, mm.MigrationBytes,
		st.Periods, st.Sampled, st.Demotions, st.Promotions, st.Retries, st.Quarantined,
		fr.Injected, fr.Permanent, fr.RolledBack,
		m.Clock(), eng.QuarantinedPages(), events)
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteCheckpoint atomically persists cp at path: the snapshot is written
// to a temp file in the same directory, synced, and renamed over the
// destination, so a crash mid-write leaves either the old checkpoint or
// the new one, never a torn file.
func WriteCheckpoint(path string, cp *Checkpoint) error {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("daemon: encode checkpoint: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("daemon: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("daemon: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("daemon: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("daemon: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("daemon: commit checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint loads and sanity-checks a checkpoint file. A missing file
// returns (nil, nil): starting fresh is the normal case, not an error.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("daemon: read checkpoint: %w", err)
	}
	var cp Checkpoint
	if err := strictUnmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("daemon: parse checkpoint %s: %w", path, err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("daemon: checkpoint %s has version %d, want %d", path, cp.Version, checkpointVersion)
	}
	if cp.SavedAtEpoch == 0 || cp.Digest == "" {
		return nil, fmt.Errorf("daemon: checkpoint %s is incomplete", path)
	}
	if err := cp.Config.ValidateForDaemon(); err != nil {
		return nil, fmt.Errorf("daemon: checkpoint %s config: %w", path, err)
	}
	return &cp, nil
}
