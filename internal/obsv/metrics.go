package obsv

import (
	"io"
	"strconv"

	"thermostat/internal/telemetry"
)

// families renders the publisher's current state as Prometheus metric
// families in a fixed, deterministic order. Counters accumulate per-epoch
// Snapshot deltas; gauges are the latest snapshot's values.
func (p *Publisher) families() []family {
	st := p.state()
	engines := p.censuses()

	var fams []family
	add := func(name, help string, typ metricType, samples ...sample) {
		fams = append(fams, family{Name: name, Help: help, Type: typ, Samples: samples})
	}

	info := st.Info
	add("thermostat_run_info",
		"Static run identification; value is always 1.",
		typeGauge, sample{Labels: []promLabel{
			{"binary", info.Binary},
			{"app", info.App},
			{"tracker", info.Tracker},
			{"policy", info.Policy},
			{"scale", info.Scale},
			{"seed", strconv.FormatUint(info.Seed, 10)},
			{"workers", strconv.Itoa(info.Workers)},
		}, Value: 1})
	add("thermostat_run_phase",
		"Run phase (idle/running/done); value is always 1 for the current phase.",
		typeGauge, sample{Labels: []promLabel{{"phase", st.Phase}}, Value: 1})

	// Per-stream families. Streams keep registration order; each sample
	// carries a run="<label>" label.
	type perStream struct {
		name  string
		help  string
		typ   metricType
		value func(s streamCopy) (float64, bool)
	}
	counters := []perStream{
		{"thermostat_virtual_time_seconds", "Virtual time high-water mark of the run.", typeGauge,
			func(s streamCopy) (float64, bool) { return float64(s.TimeNs) / 1e9, true }},
		{"thermostat_epoch", "Current telemetry epoch.", typeGauge,
			func(s streamCopy) (float64, bool) { return float64(s.Epoch), true }},
	}
	// Then every telemetry.Counters row's lifetime total, in its order.
	for _, c := range telemetry.Counters {
		counters = append(counters, perStream{c.Family, c.Help, typeCounter,
			func(s streamCopy) (float64, bool) { return float64(*c.Of(&s.Totals)), true }})
	}
	counters = append(counters, []perStream{
		{"thermostat_cold_bytes", "Bytes classified cold at the last epoch boundary.", typeGauge,
			func(s streamCopy) (float64, bool) { return float64(s.Last.ColdBytes), s.HasSnapshot }},
		{"thermostat_hot_bytes", "Bytes classified hot at the last epoch boundary.", typeGauge,
			func(s streamCopy) (float64, bool) { return float64(s.Last.HotBytes), s.HasSnapshot }},
		{"thermostat_poisoned_pages", "Leaf mappings armed for fault interception.", typeGauge,
			func(s streamCopy) (float64, bool) { return float64(s.Last.PoisonedPages), s.HasSnapshot }},
		{"thermostat_telemetry_events_total", "Telemetry events offered to the collector.", typeCounter,
			func(s streamCopy) (float64, bool) { return float64(s.Events), true }},
		{"thermostat_telemetry_dropped_total", "Telemetry events dropped past the MaxEvents cap (deterministic).", typeCounter,
			func(s streamCopy) (float64, bool) { return float64(s.Dropped), true }},
		{"thermostat_telemetry_snapshots_total", "Epoch snapshots recorded (including ring-evicted).", typeCounter,
			func(s streamCopy) (float64, bool) { return float64(s.SnapshotsSeen), true }},
		{"thermostat_telemetry_ring_high_water", "Snapshot-ring high-water mark (caps at MaxSnapshots).", typeGauge,
			func(s streamCopy) (float64, bool) { return float64(s.RingHighWater), true }},
	}...)
	for _, m := range counters {
		var samples []sample
		for _, s := range st.Streams {
			v, ok := m.value(s)
			if !ok {
				continue
			}
			samples = append(samples, sample{Labels: []promLabel{{"run", s.Label}}, Value: v})
		}
		add(m.name, m.help, m.typ, samples...)
	}

	// Per-tier families ({run, tier} with tier as the numeric mem.TierID).
	var tierAcc, tierOcc []sample
	for _, s := range st.Streams {
		for i, v := range s.Totals.TierAccesses {
			tierAcc = append(tierAcc, sample{
				Labels: []promLabel{{"run", s.Label}, {"tier", strconv.Itoa(i)}},
				Value:  float64(v),
			})
		}
		if s.HasSnapshot {
			for i, v := range s.Last.TierOccupancy {
				tierOcc = append(tierOcc, sample{
					Labels: []promLabel{{"run", s.Label}, {"tier", strconv.Itoa(i)}},
					Value:  float64(v),
				})
			}
		}
	}
	add("thermostat_tier_accesses_total", "Accesses served per tier.", typeCounter, tierAcc...)
	add("thermostat_tier_occupancy_bytes", "Used bytes per tier at the last epoch boundary.", typeGauge, tierOcc...)

	// Confusion-matrix cells vs. LLC ground truth (latest valid epoch).
	var confusion []sample
	for _, s := range st.Streams {
		if !s.HasSnapshot || !s.Last.ConfusionValid {
			continue
		}
		for _, c := range []struct {
			cell string
			v    uint64
		}{
			{"cold_idle", s.Last.ColdIdle},
			{"cold_accessed", s.Last.ColdAccessed},
			{"hot_idle", s.Last.HotIdle},
			{"hot_accessed", s.Last.HotAccessed},
		} {
			confusion = append(confusion, sample{
				Labels: []promLabel{{"run", s.Label}, {"cell", c.cell}},
				Value:  float64(c.v),
			})
		}
	}
	add("thermostat_classified_pages",
		"Classification confusion cells vs. LLC ground truth in the last epoch.",
		typeGauge, confusion...)

	// Per-tenant families from the fleet arbiter (sorted by tenant name).
	type perTenant struct {
		name  string
		help  string
		typ   metricType
		value func(t tenantCopy) (float64, bool)
	}
	tenantFams := []perTenant{
		{"thermostat_tenant_resident", "1 while the tenant is resident, 0 after departure.", typeGauge,
			func(t tenantCopy) (float64, bool) {
				if t.Resident {
					return 1, true
				}
				return 0, true
			}},
		{"thermostat_tenant_grant_bytes", "DRAM grant currently in force.", typeGauge,
			func(t tenantCopy) (float64, bool) { return float64(t.GrantBytes), true }},
		{"thermostat_tenant_arrived_seconds", "Virtual arrival time.", typeGauge,
			func(t tenantCopy) (float64, bool) { return float64(t.ArrivedNs) / 1e9, true }},
		{"thermostat_tenant_departed_seconds", "Virtual departure time (0 while resident).", typeGauge,
			func(t tenantCopy) (float64, bool) { return float64(t.DepartedNs) / 1e9, true }},
		{"thermostat_tenant_usage_bytes", "Top-tier residency at the last arbiter period.", typeGauge,
			func(t tenantCopy) (float64, bool) { return float64(t.Last.UsageBytes), t.HasSnap }},
		{"thermostat_tenant_footprint_bytes", "Total mapped bytes across tiers.", typeGauge,
			func(t tenantCopy) (float64, bool) { return float64(t.Last.FootprintBytes), t.HasSnap }},
		{"thermostat_tenant_slowdown_pct", "Tenant engine's slowdown estimate.", typeGauge,
			func(t tenantCopy) (float64, bool) { return t.Last.SlowdownPct, t.HasSnap }},
		{"thermostat_tenant_slo_pct", "Tenant slowdown objective.", typeGauge,
			func(t tenantCopy) (float64, bool) { return t.Last.SLOPct, t.HasSnap }},
		{"thermostat_tenant_slo_slack_pct", "SLO headroom: objective minus estimated slowdown.", typeGauge,
			func(t tenantCopy) (float64, bool) { return t.Last.SLOPct - t.Last.SlowdownPct, t.HasSnap }},
		{"thermostat_tenant_ops_total", "Cumulative tenant accesses at the last arbiter period.", typeCounter,
			func(t tenantCopy) (float64, bool) { return float64(t.Last.Ops), t.HasSnap }},
		{"thermostat_tenant_cold_pages", "Pages the tenant engine classifies cold.", typeGauge,
			func(t tenantCopy) (float64, bool) { return float64(t.Last.ColdPages), t.HasSnap }},
		{"thermostat_tenant_quarantined_pages", "Tenant pages under chaos quarantine.", typeGauge,
			func(t tenantCopy) (float64, bool) { return float64(t.Last.QuarantinedPages), t.HasSnap }},
	}
	for _, m := range tenantFams {
		var samples []sample
		for _, t := range st.Tenants {
			v, ok := m.value(t)
			if !ok {
				continue
			}
			samples = append(samples, sample{Labels: []promLabel{{"tenant", t.Name}}, Value: v})
		}
		add(m.name, m.help, m.typ, samples...)
	}

	// Per-engine placement families from published censuses.
	type perEngine struct {
		name  string
		help  string
		typ   metricType
		value func(e engineCensus) float64
	}
	engineFams := []perEngine{
		{"thermostat_engine_periods_total", "Completed engine sampling periods.", typeCounter,
			func(e engineCensus) float64 { return float64(e.Census.Stats.Periods) }},
		{"thermostat_engine_sampled_pages_total", "Huge pages profiled by the tracker.", typeCounter,
			func(e engineCensus) float64 { return float64(e.Census.Stats.Sampled) }},
		{"thermostat_engine_slowdown_pct", "Engine's estimated slowdown.", typeGauge,
			func(e engineCensus) float64 { return e.Census.SlowdownPct }},
		{"thermostat_engine_inflight_pages", "Pages mid-migration (transactional).", typeGauge,
			func(e engineCensus) float64 { return float64(e.Census.Inflight) }},
		{"thermostat_engine_demote_failures_total", "Demotion attempts that failed.", typeCounter,
			func(e engineCensus) float64 { return float64(e.Census.Stats.DemoteFailures) }},
		{"thermostat_engine_promote_failures_total", "Promotion attempts that failed.", typeCounter,
			func(e engineCensus) float64 { return float64(e.Census.Stats.PromoteFailures) }},
	}
	for _, m := range engineFams {
		var samples []sample
		for _, e := range engines {
			samples = append(samples, sample{Labels: []promLabel{{"run", e.Label}}, Value: m.value(e)})
		}
		add(m.name, m.help, m.typ, samples...)
	}
	var classSamples []sample
	for _, e := range engines {
		var hot, cold, quar int
		for _, pg := range e.Census.Pages {
			switch {
			case pg.Quarantined:
				quar++
			case pg.Cold:
				cold++
			default:
				hot++
			}
		}
		for _, c := range []struct {
			class string
			n     int
		}{{"hot", hot}, {"cold", cold}, {"quarantined", quar}} {
			classSamples = append(classSamples, sample{
				Labels: []promLabel{{"run", e.Label}, {"class", c.class}},
				Value:  float64(c.n),
			})
		}
	}
	add("thermostat_engine_pages",
		"Engine classification census by class (hot/cold/quarantined).",
		typeGauge, classSamples...)

	return fams
}

// WriteMetrics renders the /metrics payload.
func (p *Publisher) WriteMetrics(w io.Writer) error {
	return writeProm(w, p.families())
}
