package main

import (
	"fmt"
	"io"
	"math"
)

// setupFloorS is the absolute slack setup_s gets on top of its relative
// bound: set-ups here take well under a millisecond, where a relative bound
// alone would gate timer noise.
const setupFloorS = 0.05

// diffFiles compares result file b against a, one row per workload ×
// end-to-end metric, against the bounds of the endToEnd table (diffBound where
// there is one). It reports
// false when any metric is worse than its bound allows, when a metric that
// is exact for a seed changed at all between two files of one seed, or when
// a workload's failed share rose.
func diffFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	return diffResults(w, a, b), nil
}

func diffResults(w io.Writer, a, b *resultFile) bool {
	ok := true
	sameSeed := a.Header.Seed == b.Header.Seed
	if a.Header.CPUModel != b.Header.CPUModel || a.Header.NumCPU != b.Header.NumCPU {
		fmt.Fprintf(w, "note: host fingerprints differ (%s/%d vs %s/%d)\n",
			a.Header.CPUModel, a.Header.NumCPU, b.Header.CPUModel, b.Header.NumCPU)
	}
	if !sameSeed {
		fmt.Fprintf(w, "note: seeds differ (%d vs %d): exact metrics are held to their bounds, digests are not compared\n",
			a.Header.Seed, b.Header.Seed)
	}
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %9s %9s  %s\n", "workload", "metric", "A", "B", "change", "allowed", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, x := range b.Workloads {
			if x.Name == wa.Name {
				wb = x
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-18s missing from B\n", wa.Name)
			ok = false
			continue
		}
		for _, d := range endToEnd {
			va, hasA := wa.EndToEnd[d.Name]
			vb, hasB := wb.EndToEnd[d.Name]
			if !hasA || !hasB {
				continue
			}
			// worse is how far B moved in the bad direction, as a share of A.
			worse := (vb - va) / math.Abs(va)
			if d.Better == "higher" {
				worse = -worse
			}
			bound := d.Bound
			if d.diffBound > 0 {
				bound = d.diffBound
			}
			verdict := "ok"
			allowed := fmt.Sprintf("%.1f%%", 100*bound)
			switch {
			case d.exact && sameSeed:
				allowed = "0"
				if va != vb {
					verdict = "CHANGED"
				}
			case d.Name == "setup_s" && vb-va <= setupFloorS:
				allowed += "|50ms"
			case worse > bound:
				verdict = "WORSE"
			}
			if verdict == "ok" && worse < -bound {
				verdict = "ok (better)"
			}
			if verdict == "CHANGED" || verdict == "WORSE" {
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-22s %14.6g %14.6g %+8.2f%% %9s  %s\n",
				wa.Name, d.Name, va, vb, 100*(vb-va)/math.Abs(va), allowed, verdict)
		}
		if sameSeed {
			verdict := "same"
			if wa.SimDigest != wb.SimDigest {
				verdict = "CHANGED"
			}
			fmt.Fprintf(w, "%-18s %-22s %14s %14s %9s %9s  %s\n", wa.Name, "sim_digest", wa.SimDigest[:12], wb.SimDigest[:12], "", "", verdict)
		}
		if share(wb) > share(wa) {
			fmt.Fprintf(w, "%-18s failed share rose: %d/%d -> %d/%d\n", wa.Name,
				wa.OpsFailed, wa.OpsAttempted, wb.OpsFailed, wb.OpsAttempted)
			ok = false
		}
	}
	return ok
}

func share(w *workloadResult) float64 {
	if w.OpsAttempted == 0 {
		return 0
	}
	return float64(w.OpsFailed) / float64(w.OpsAttempted)
}
