// Package thermostat is an application-transparent, huge-page-aware page
// management system for two-tiered main memory, reproducing "Thermostat:
// Application-transparent Page Management for Two-tiered Main Memory"
// (Agarwal & Wenisch, ASPLOS 2017) as a self-contained Go simulation.
//
// The library has three layers:
//
//   - A machine model (Machine): an ordered hierarchy of memory tiers (the
//     paper's two-tier DRAM+slow system by default, arbitrary N-tier
//     hierarchies via DefaultTieredConfig), an x86-64-style 4-level
//     page table with 2MB huge pages, a two-level TLB, nested (EPT-style)
//     page walks, an LLC, and BadgerTrap-style PTE-poisoning fault
//     interception — everything the mechanism interacts with on real
//     hardware, simulated in virtual time.
//
//   - The Thermostat policy (Engine): online huge-page-aware hot/cold
//     classification driven by a single knob, the tolerable slowdown. Every
//     scan interval it splits a random 5% of huge pages, poisons up to 50
//     accessed 4KB children each, estimates per-page access rates from the
//     resulting TLB-miss faults, demotes the coldest pages to slow memory
//     under the rate budget x/(100·ts), and promotes mis-classified pages
//     whose measured rates would breach the budget.
//
//   - Workload models (subpackage-driven, re-exported here): the paper's
//     six cloud applications with their published footprints and access
//     skews, plus a closed-loop runner that measures throughput, slowdown
//     and cold-data fractions.
//
// Quick start:
//
//	m, _ := thermostat.NewMachine(thermostat.DefaultMachineConfig(1<<30, 1<<30))
//	app, _ := thermostat.NewWorkload(thermostat.Redis(), 64, 1)
//	eng, _ := thermostat.NewEngine(thermostat.DefaultParams(), 1)
//	res, _ := thermostat.Run(m, app, eng, thermostat.RunConfig{DurationNs: 60e9})
//	fmt.Printf("cold: %.0f%%\n", res.FinalFootprint.ColdFraction()*100)
package thermostat

import (
	"thermostat/internal/cgroup"
	"thermostat/internal/chaos"
	"thermostat/internal/core"
	"thermostat/internal/mem"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// Machine is the simulated two-tier memory system plus MMU. See sim.Machine
// for the full method set (Access, Demote, Promote, Metrics, ...).
type Machine = sim.Machine

// MachineConfig assembles a Machine.
type MachineConfig = sim.Config

// ChaosConfig configures deterministic fault injection into the migration
// and poisoning machinery (MachineConfig.Chaos). The zero value installs
// no injector; see DESIGN.md "Robustness".
type ChaosConfig = chaos.Config

// FaultReport summarizes a run's chaos fault handling: injections,
// retries, rollbacks, quarantined pages (Machine.FaultReport,
// Engine.FaultReport).
type FaultReport = chaos.Report

// SlowMemMode selects how slow-memory accesses are costed.
type SlowMemMode = sim.SlowMemMode

// Slow-memory costing modes.
const (
	// EmulatedFault reproduces the paper's methodology: slow-tier pages
	// are poisoned and each TLB miss to them costs a ~1us fault.
	EmulatedFault = sim.EmulatedFault
	// Device charges the slow tier's device latency instead.
	Device = sim.Device
)

// App is a workload: it allocates a footprint and produces a closed-loop
// access stream.
type App = sim.App

// Policy is a page-placement policy ticked every scan interval.
type Policy = sim.Policy

// RunConfig schedules a simulation run.
type RunConfig = sim.RunConfig

// RunResult carries throughput, slow-memory rate and footprint series.
type RunResult = sim.RunResult

// Footprint classifies mapped bytes as hot/cold at 2MB/4KB grain.
type Footprint = sim.Footprint

// NullPolicy is the all-DRAM baseline (no placement).
type NullPolicy = sim.NullPolicy

// Params are Thermostat's cgroup-exposed knobs; TolerableSlowdownPct is the
// single headline input.
type Params = cgroup.Params

// Group is a runtime-tunable parameter group shared by processes, like a
// memory cgroup.
type Group = cgroup.Group

// Engine is a composed page-placement engine: a Tracker feeding a
// PlacementPolicy. NewEngine builds the paper's Thermostat composition
// (poison tracker + threshold policy); Compose builds any other cell of the
// tracker × policy matrix.
type Engine = core.Engine

// EngineStats are the engine's lifetime counters.
type EngineStats = core.Stats

// Tracker estimates per-page access rates (the engine's sensing half).
type Tracker = core.Tracker

// PlacementPolicy is the engine's acting half: the decision rule that turns
// tracker estimates into migrations. It embeds the placement ledger (cold
// set, quarantine bench, migration counters), which the Engine reads
// directly, so the policy itself exposes only its phases (Correct, Place,
// EndPeriod), DemoteForCapacity, Footprint and StateBytes. Only the core
// package's ThresholdPolicy and HeatPolicy, and types embedding them,
// implement it. The name avoids clashing with Policy, the sim-level
// interface every engine implements.
type PlacementPolicy = core.Policy

// IdleDemote is the naive Accessed-bit baseline (demote pages idle for N
// scans) the paper argues against.
type IdleDemote = core.IdleDemote

// WorkloadSpec declares an application model.
type WorkloadSpec = workload.Spec

// Segment declares one memory segment of a workload (size, traffic share,
// intra-segment distribution).
type Segment = workload.SegmentSpec

// Growth makes a workload's footprint grow at runtime (Memtable fill,
// shuffle spill).
type Growth = workload.GrowthSpec

// Picker is an intra-segment access distribution.
type Picker = workload.Picker

// UniformPicker accesses a segment's pages uniformly.
type UniformPicker = workload.Uniform

// ZipfPicker applies YCSB-style scrambled-Zipfian page popularity.
type ZipfPicker = workload.Zipf

// HotspotPicker sends a fraction of accesses to a small hot page set.
type HotspotPicker = workload.Hotspot

// SweepPicker cycles sequentially through a segment (scans, expiry).
type SweepPicker = workload.Sweep

// AppendPicker writes sequentially into the most recent region (logs).
type AppendPicker = workload.Append

// HotspotSweepPicker combines a hash-scattered hotspot with a background
// sweep — the Redis pattern.
type HotspotSweepPicker = workload.HotspotSweep

// Workload is a runnable application model.
type Workload = workload.App

// Mix selects the read/write ratio for the NoSQL stores.
type Mix = workload.Mix

// Traffic mixes.
const (
	// ReadHeavy is the 95:5 read/write mix.
	ReadHeavy = workload.ReadHeavy
	// WriteHeavy is the 5:95 read/write mix.
	WriteHeavy = workload.WriteHeavy
)

// TierSpec describes one memory tier's hardware: name, capacity,
// latencies, bandwidth and relative cost.
type TierSpec = mem.Spec

// TierID identifies a tier by hierarchy position (0 = fastest).
type TierID = mem.TierID

// MaxTiers bounds hierarchy depth.
const MaxTiers = mem.MaxTiers

// Device presets for building hierarchies.

// DRAMTier returns the paper's DRAM parameters (80ns, cost 1.0).
func DRAMTier(capacity uint64) TierSpec { return mem.DefaultDRAM(capacity) }

// CXLTier returns CXL-expander parameters (250ns, half DRAM cost).
func CXLTier(capacity uint64) TierSpec { return mem.DefaultCXL(capacity) }

// NVMTier returns 3D-XPoint-class parameters (1000ns, a fifth of DRAM cost).
func NVMTier(capacity uint64) TierSpec { return mem.DefaultNVM(capacity) }

// SlowTier returns the paper's generic slow-memory parameters (1000ns, a
// third of DRAM cost).
func SlowTier(capacity uint64) TierSpec { return mem.DefaultSlow(capacity) }

// TierPreset resolves a named device preset ("dram", "cxl", "nvm", "slow").
func TierPreset(name string, capacity uint64) (TierSpec, bool) {
	return mem.Preset(name, capacity)
}

// DefaultTieredConfig returns the default machine over an arbitrary ordered
// hierarchy, fastest first — the N-tier generalization of
// DefaultMachineConfig. With more than two tiers, prefer Device mode so each
// tier's own latency is charged.
func DefaultTieredConfig(tiers ...TierSpec) MachineConfig {
	return sim.DefaultTieredConfig(tiers...)
}

// DefaultMachineConfig returns the paper's evaluated machine: KVM-style
// nested paging with huge host pages, 64/1024-entry TLBs, 45MB LLC, eight
// threads, BadgerTrap slow-memory emulation, and the given tier capacities
// in bytes.
func DefaultMachineConfig(fastBytes, slowBytes uint64) MachineConfig {
	return sim.DefaultConfig(fastBytes, slowBytes)
}

// NewMachine builds a Machine.
func NewMachine(cfg MachineConfig) (*Machine, error) { return sim.New(cfg) }

// DefaultParams returns the paper's evaluated parameters: 3% tolerable
// slowdown, 30s sampling period, 5% sample fraction, 50-page poison budget,
// 1us slow-memory latency.
func DefaultParams() Params { return cgroup.Default() }

// NewGroup validates params into a runtime-tunable group.
func NewGroup(name string, p Params) (*Group, error) { return cgroup.NewGroup(name, p) }

// NewEngine builds a Thermostat engine with its own single-member group.
func NewEngine(p Params, seed uint64) (*Engine, error) {
	g, err := cgroup.NewGroup("thermostat", p)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(g, seed), nil
}

// NewEngineInGroup builds an engine sharing an existing group, so its knobs
// can be retuned at runtime.
func NewEngineInGroup(g *Group, seed uint64) *Engine {
	return core.NewEngine(g, seed)
}

// TrackerNames lists the selectable access trackers.
func TrackerNames() []string { return core.TrackerNames() }

// PolicyNames lists the selectable placement policies.
func PolicyNames() []string { return core.PolicyNames() }

// Compose builds an engine from any registered tracker × policy pair; see
// TrackerNames and PolicyNames. Compose(p, "poison", "threshold", seed) is
// the paper's engine under its composition name.
func Compose(p Params, tracker, policy string, seed uint64) (*Engine, error) {
	g, err := cgroup.NewGroup(tracker+"+"+policy, p)
	if err != nil {
		return nil, err
	}
	return core.ComposeByName(g, tracker, policy, seed)
}

// ComposeInGroup is Compose over an existing runtime-tunable group.
func ComposeInGroup(g *Group, tracker, policy string, seed uint64) (*Engine, error) {
	return core.ComposeByName(g, tracker, policy, seed)
}

// Run drives app under pol on m.
func Run(m *Machine, app App, pol Policy, rc RunConfig) (*RunResult, error) {
	return sim.Run(m, app, pol, rc)
}

// Slowdown compares a policy run to its all-DRAM baseline: 0.03 means 3%.
func Slowdown(baseline, policy *RunResult) float64 {
	return sim.Slowdown(baseline, policy)
}

// NewWorkload instantiates an application model with its footprint divided
// by scale.
func NewWorkload(spec WorkloadSpec, scale, seed uint64) (*Workload, error) {
	return workload.NewApp(spec, scale, seed)
}

// Workloads returns the paper's six evaluated applications.
func Workloads() []WorkloadSpec { return workload.All() }

// WorkloadByName resolves an application name (see Workloads, plus
// "-read-heavy"/"-write-heavy" suffixes for the NoSQL stores).
func WorkloadByName(name string) (WorkloadSpec, bool) { return workload.ByName(name) }

// The six applications, for direct construction.

// Aerospike is the multi-threaded key-value store model.
func Aerospike(mix Mix) WorkloadSpec { return workload.Aerospike(mix) }

// Cassandra is the wide-column store model.
func Cassandra(mix Mix) WorkloadSpec { return workload.Cassandra(mix) }

// MySQLTPCC is the OLTP database model.
func MySQLTPCC() WorkloadSpec { return workload.MySQLTPCC() }

// Redis is the hotspot key-value store model.
func Redis() WorkloadSpec { return workload.Redis() }

// InMemAnalytics is the Spark collaborative-filtering model.
func InMemAnalytics() WorkloadSpec { return workload.InMemAnalytics() }

// WebSearch is the Solr search model.
func WebSearch() WorkloadSpec { return workload.WebSearch() }

// Telemetry: attach a TelemetryCollector through MachineConfig.Recorder (or
// Machine.SetRecorder) to record typed events and per-epoch metric snapshots
// in virtual time, then export them with WriteChromeTrace (Perfetto),
// WriteJSONL, or EpochTable. With no recorder attached the instrumentation
// is a single nil check per site.

// TelemetryRecorder receives events and snapshots; implemented by
// TelemetryCollector and by application-defined sinks.
type TelemetryRecorder = telemetry.Recorder

// TelemetryCollector is the bounded in-memory recorder with exporters.
type TelemetryCollector = telemetry.Collector

// TelemetryConfig bounds a collector (max events, max snapshots).
type TelemetryConfig = telemetry.Config

// TelemetryEvent is one typed, virtual-time-stamped occurrence.
type TelemetryEvent = telemetry.Event

// TelemetrySnapshot is one epoch's metric snapshot.
type TelemetrySnapshot = telemetry.Snapshot

// NewTelemetryCollector returns a collector with default bounds.
func NewTelemetryCollector() *TelemetryCollector { return telemetry.NewCollector() }

// NewTelemetryCollectorWith returns a collector with explicit bounds.
func NewTelemetryCollectorWith(cfg TelemetryConfig) *TelemetryCollector {
	return telemetry.NewCollectorWith(cfg)
}
