package report

import (
	"strings"
	"testing"

	"thermostat/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("Title", "app", "value")
	tb.add("redis", "10")
	tb.add("cassandra", "45")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Title") {
		t.Fatal("missing title")
	}
	// All data lines equal width (aligned columns).
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("header/separator misaligned:\n%s", out)
	}
	if !strings.Contains(lines[3], "redis") || !strings.Contains(lines[4], "cassandra") {
		t.Fatalf("rows missing:\n%s", out)
	}
}

func TestTableNoHeader(t *testing.T) {
	tb := NewTable("")
	tb.add("a", "b")
	out := tb.String()
	if strings.Contains(out, "---") {
		t.Fatal("separator without header")
	}
}

func TestAddF(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddF("x", 0.12345, 42)
	row := tb.Rows[0]
	if row[0] != "x" || row[1] != "0.123" || row[2] != "42" {
		t.Fatalf("row = %v", row)
	}
}

func TestWriteCSVQuoting(t *testing.T) {
	tb := NewTable("", "name", "note")
	tb.add("a,b", `say "hi"`)
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}

func TestSeriesTable(t *testing.T) {
	s1 := stats.NewSeries("cold")
	s2 := stats.NewSeries("hot")
	s1.Append(1e9, 10)
	s1.Append(2e9, 20)
	s2.Append(1e9, 90)
	s2.Append(3e9, 70)
	tb := SeriesTable("fig", s1, s2)
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (union of timestamps)", len(tb.Rows))
	}
	if tb.Rows[0][0] != "1.0" || tb.Rows[0][1] != "10" || tb.Rows[0][2] != "90" {
		t.Fatalf("row0 = %v", tb.Rows[0])
	}
	// Missing cell renders empty.
	if tb.Rows[1][2] != "" {
		t.Fatalf("row1 = %v", tb.Rows[1])
	}
	if tb.Rows[2][1] != "" || tb.Rows[2][2] != "70" {
		t.Fatalf("row2 = %v", tb.Rows[2])
	}
}

func TestSeriesTableUnsortedTimes(t *testing.T) {
	s := stats.NewSeries("x")
	s.Append(3e9, 3)
	s.Append(1e9, 1)
	tb := SeriesTable("", s)
	if tb.Rows[0][0] != "1.0" || tb.Rows[1][0] != "3.0" {
		t.Fatalf("rows unsorted: %v", tb.Rows)
	}
}

func TestBar(t *testing.T) {
	out := Bar("idle", []string{"mysql", "redis"}, []float64{0.55, 0.25}, 20)
	if !strings.Contains(out, "mysql") || !strings.Contains(out, "55.0%") {
		t.Fatalf("bar output:\n%s", out)
	}
	// Clamping.
	out = Bar("", []string{"x"}, []float64{1.5}, 10)
	if !strings.Contains(out, strings.Repeat("#", 10)) {
		t.Fatalf("overflow not clamped:\n%s", out)
	}
	out = Bar("", []string{"x"}, []float64{-1}, 10)
	if strings.Contains(out, "#") {
		t.Fatalf("negative not clamped:\n%s", out)
	}
}
