// Package golden is the one mechanism behind every recorded test
// expectation: a file under the calling package's testdata/ that a test
// compares its output against, and that the single -update switch
// re-records instead (`go test ./internal/x -run TestY -update`).
// scripts/goldens.sh runs every golden test that way on a rebase.
package golden

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record the golden files under testdata/ instead of comparing against them")

// Bytes compares got with testdata/name byte for byte, or writes it there
// under -update.
func Bytes(t testing.TB, name string, got []byte) {
	t.Helper()
	want, ok := record(t, name, got)
	if ok && !bytes.Equal(got, want) {
		t.Errorf("%s: %s; verify the change and re-record with -update",
			filepath.Join("testdata", name), firstDiff(got, want))
	}
}

// JSON encodes v as canonical JSON (indented, struct fields in declaration
// order, map keys sorted) and compares it with testdata/name, or writes it
// there under -update. A mismatch names every field that differs.
func JSON(t testing.TB, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("golden %s: %v", name, err)
	}
	got = append(got, '\n')
	want, ok := record(t, name, got)
	if !ok || bytes.Equal(got, want) {
		return
	}
	var g, w any
	if err := decode(want, &w); err != nil {
		t.Fatalf("golden %s is not JSON: %v", name, err)
	}
	if err := decode(got, &g); err != nil {
		t.Fatal(err)
	}
	diffs := fieldDiffs("", g, w, nil)
	if len(diffs) == 0 {
		diffs = []string{"(layout only: the values are equal)"}
	}
	t.Errorf("%s: %d field(s) differ; verify the change and re-record with -update:\n\t%s",
		filepath.Join("testdata", name), len(diffs), strings.Join(diffs, "\n\t"))
}

// record returns the recorded golden and true, or under -update writes got
// in its place and returns false.
func record(t testing.TB, name string, got []byte) ([]byte, bool) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return nil, false
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s: %v (record it with -update)", path, err)
	}
	return want, true
}

// decode parses JSON keeping numbers as their literal text, so a uint64
// above 2^53 compares exactly.
func decode(b []byte, v *any) error {
	d := json.NewDecoder(bytes.NewReader(b))
	d.UseNumber()
	return d.Decode(v)
}

// fieldDiffs appends one "path: got X, want Y" line per leaf that differs.
func fieldDiffs(path string, got, want any, out []string) []string {
	switch w := want.(type) {
	case map[string]any:
		if g, ok := got.(map[string]any); ok {
			keys := make([]string, 0, len(w)+len(g))
			for k := range w {
				keys = append(keys, k)
			}
			for k := range g {
				if _, dup := w[k]; !dup {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				out = fieldDiffs(strings.TrimPrefix(path+"."+k, "."), g[k], w[k], out)
			}
			return out
		}
	case []any:
		if g, ok := got.([]any); ok && len(g) == len(w) {
			for i := range w {
				out = fieldDiffs(fmt.Sprintf("%s[%d]", path, i), g[i], w[i], out)
			}
			return out
		}
	}
	if !reflect.DeepEqual(got, want) {
		out = append(out, fmt.Sprintf("%s: got %s, want %s", path, show(got), show(want)))
	}
	return out
}

func show(v any) string {
	if v == nil {
		return "(absent)"
	}
	b, _ := json.Marshal(v)
	return string(b)
}

// firstDiff describes where two byte strings part.
func firstDiff(got, want []byte) string {
	line := 1
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			break
		}
		if got[i] == '\n' {
			line++
		}
	}
	return fmt.Sprintf("got %d bytes, want %d; first difference on line %d", len(got), len(want), line)
}
