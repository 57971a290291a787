// Package report renders the experiment harness's outputs: aligned text
// tables for the paper's tables, and time/value column dumps (text or CSV)
// for its figures.
package report

import (
	"fmt"
	"io"
	"strings"

	"thermostat/internal/stats"
)

// Table is a titled grid of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// add appends a row; missing cells render empty, extra cells extend the
// grid.
func (t *Table) add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddF appends a row of formatted values: strings pass through, float64
// render with 3 significant decimals, integers plainly.
func (t *Table) AddF(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case int, int64, uint64, uint:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.add(row...)
}

func (t *Table) widths() []int {
	n := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > n {
			n = len(r)
		}
	}
	w := make([]int, n)
	for i, h := range t.Header {
		w[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// String renders an aligned text table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	w := t.widths()
	line := func(cells []string) {
		for i := 0; i < len(w); i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w[i], c)
		}
		b.WriteString("\n")
	}
	if len(t.Header) > 0 {
		line(t.Header)
		sep := make([]string, len(w))
		for i := range sep {
			sep[i] = strings.Repeat("-", w[i])
		}
		line(sep)
	}
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// WriteCSV emits the table as CSV (RFC-4180-style quoting for cells
// containing commas or quotes).
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if len(t.Header) > 0 {
		if err := writeRow(t.Header); err != nil {
			return err
		}
	}
	for _, r := range t.Rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// SeriesTable tabulates one or more series over their union of timestamps:
// the figure-regeneration format (first column seconds, one column per
// series). Series are expected to share timestamps (same sampling window);
// missing points render empty.
func SeriesTable(title string, series ...*stats.Series) *Table {
	header := []string{"time_s"}
	for _, s := range series {
		header = append(header, s.Name)
	}
	t := NewTable(title, header...)

	// Union of timestamps in order.
	seen := map[int64]bool{}
	var times []int64
	for _, s := range series {
		for _, ts := range s.Times {
			if !seen[ts] {
				seen[ts] = true
				times = append(times, ts)
			}
		}
	}
	sortInt64(times)

	// Index per series.
	idx := make([]map[int64]float64, len(series))
	for i, s := range series {
		idx[i] = make(map[int64]float64, len(s.Times))
		for j, ts := range s.Times {
			idx[i][ts] = s.Values[j]
		}
	}
	for _, ts := range times {
		row := []string{fmt.Sprintf("%.1f", float64(ts)/1e9)}
		for i := range series {
			if v, ok := idx[i][ts]; ok {
				row = append(row, fmt.Sprintf("%.4g", v))
			} else {
				row = append(row, "")
			}
		}
		t.add(row...)
	}
	return t
}

func sortInt64(xs []int64) {
	// Insertion sort: series timestamps are nearly sorted already.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Bar renders a labeled horizontal ASCII bar chart of fractions in [0, 1] —
// the quick-look format for Figure 1 and Figure 11.
func Bar(title string, labels []string, values []float64, width int) string {
	if width <= 0 {
		width = 50
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	for i, l := range labels {
		v := 0.0
		if i < len(values) {
			v = values[i]
		}
		n := int(v * float64(width))
		if n > width {
			n = width
		}
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "%-*s |%s%s| %5.1f%%\n",
			labelW, l, strings.Repeat("#", n), strings.Repeat(" ", width-n), v*100)
	}
	return b.String()
}
