package golden

import (
	"reflect"
	"testing"
)

// TestFieldDiffsNamesEveryMovedField: a record mismatch lists each leaf that
// moved, by path, and nothing else; numbers above 2^53 compare exactly.
func TestFieldDiffsNamesEveryMovedField(t *testing.T) {
	want := []byte(`{"ops": 18446744073709551615, "engine": {"stats": {"Demotions": 2, "Sinks": 0}},
		"tier_accesses": [10, 2228], "pairs": [{"Src": 0}]}`)
	got := []byte(`{"ops": 18446744073709551614, "engine": {"stats": {"Demotions": 3, "Sinks": 0}},
		"tier_accesses": [10, 2228, 0], "extra": true, "pairs": [{"Src": 0}]}`)
	var g, w any
	if err := decode(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := decode(want, &w); err != nil {
		t.Fatal(err)
	}
	diffs := fieldDiffs("", g, w, nil)
	wantDiffs := []string{
		"engine.stats.Demotions: got 3, want 2",
		"extra: got true, want (absent)",
		"ops: got 18446744073709551614, want 18446744073709551615",
		"tier_accesses: got [10,2228,0], want [10,2228]",
	}
	if !reflect.DeepEqual(diffs, wantDiffs) {
		t.Errorf("fieldDiffs =\n%q\nwant\n%q", diffs, wantDiffs)
	}
}

func TestFirstDiffNamesTheLine(t *testing.T) {
	if got, want := firstDiff([]byte("a\nb\nc\n"), []byte("a\nb\nd\n")), "got 6 bytes, want 6; first difference on line 3"; got != want {
		t.Errorf("firstDiff = %q, want %q", got, want)
	}
}
