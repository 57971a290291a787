package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// header identifies where and how a result file was taken. Host-side
// numbers from two files compare only when the fingerprints match.
type header struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	Repeats    int     `json:"fixed_repeats"`
	Started    string  `json:"started"`
	TotalWallS float64 `json:"total_wall_s"`
}

type resultFile struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
}

func newHeader(seed uint64, seconds, repeats int) header {
	return header{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Commit:     gitCommit(),
		Seed:       seed, Seconds: seconds, Repeats: repeats,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the working directory's .git without running
// git; a checkout that is not a repository reports "unknown".
func gitCommit() string {
	head := firstLine(filepath.Join(".git", "HEAD"))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	return firstLine(filepath.Join(".git", ref))
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// print writes the human-readable report: every metric by name with its unit.
func (f *resultFile) print(w io.Writer) {
	h := f.Header
	fmt.Fprintf(w, "host: %s, %d cpus, GOMAXPROCS %d, %s, linux %s\ncommit %s, seed %d, --seconds %d, fixed repeats %d, total %.1f s\n",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.Commit, h.Seed, h.Seconds, h.Repeats, h.TotalWallS)
	for _, wl := range f.Workloads {
		fmt.Fprintf(w, "\n%s: %d repeats, %.1f s, sim_digest %s, ops attempted %d failed %d\n",
			wl.Name, wl.Repeats, wl.WallS, wl.SimDigest, wl.OpsAttempted, wl.OpsFailed)
		for _, msg := range wl.Failures {
			fmt.Fprintf(w, "  FAILED %s\n", msg)
		}
		for _, msg := range wl.Notes {
			fmt.Fprintf(w, "  note: %s\n", msg)
		}
		for _, d := range endToEnd {
			if v, ok := wl.EndToEnd[d.Name]; ok {
				fmt.Fprintf(w, "  %-34s %14.6g %-8s (%s is better, bound %g%%)\n", d.Name, v, d.Unit, d.Better, d.Bound*100)
			}
		}
		for _, d := range perLayer {
			if v, ok := wl.PerLayer[d.Name]; ok {
				fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
}
