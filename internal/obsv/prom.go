package obsv

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition format (version 0.0.4), hand-rolled — the
// repo's no-new-dependencies rule rules out client_golang, and the subset
// we need (HELP/TYPE headers, counter and gauge samples with escaped
// labels) is small.

// metricType is the TYPE of a metric family.
type metricType string

// Supported metric types.
const (
	typeCounter metricType = "counter"
	typeGauge   metricType = "gauge"
)

// promLabel is one name="value" pair.
type promLabel struct {
	Name  string
	Value string
}

// sample is one sample line within a family.
type sample struct {
	Labels []promLabel
	Value  float64
}

// family is one metric family: HELP + TYPE + samples.
type family struct {
	Name    string
	Help    string
	Type    metricType
	Samples []sample
}

// escapeLabelValue applies the exposition-format label escaping rules:
// backslash, double-quote, and newline are escaped.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline only (quotes are
// legal there).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// unescapeHelp reverses escapeHelp so a parsed scrape round-trips.
func unescapeHelp(v string) string {
	if !strings.ContainsRune(v, '\\') {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) {
			switch v[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(v[i])
	}
	return b.String()
}

// formatValue renders a sample value the way Prometheus expects; the 'g'
// format is deterministic and round-trips float64 exactly.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeProm encodes families in the text exposition format. Families and
// samples are emitted in the order given; the encoder assumes callers
// provide unique family names and unique label sets per family (ParseProm
// enforces both, and tests scrape through it).
func writeProm(w io.Writer, fams []family) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if len(f.Samples) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, s := range f.Samples {
			if len(s.Labels) == 0 {
				if _, err := fmt.Fprintf(bw, "%s %s\n", f.Name, formatValue(s.Value)); err != nil {
					return err
				}
				continue
			}
			parts := make([]string, len(s.Labels))
			for i, l := range s.Labels {
				parts[i] = l.Name + `="` + escapeLabelValue(l.Value) + `"`
			}
			if _, err := fmt.Fprintf(bw, "%s{%s} %s\n", f.Name, strings.Join(parts, ","), formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ParseProm is a strict parser for the subset of the text exposition
// format the encoder emits. It enforces what a Prometheus server would
// reject and more: every sample's family must have HELP and TYPE lines
// (HELP first), names must be legal, label values must use legal escapes,
// no duplicate families, and no duplicate samples (same name + label set).
// It exists for tests and the promlint tool; a valid scrape round-trips.
func ParseProm(r io.Reader) ([]family, error) {
	var (
		fams    []family
		byName  = map[string]int{}
		helpFor = map[string]bool{}
		seen    = map[string]bool{} // name + sorted label set
		lineNo  int
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := line[len("# HELP "):]
			name, help, _ := strings.Cut(rest, " ")
			if !validMetricName(name) {
				return nil, fmt.Errorf("line %d: bad metric name %q in HELP", lineNo, name)
			}
			if _, dup := byName[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate family %q", lineNo, name)
			}
			byName[name] = len(fams)
			helpFor[name] = true
			fams = append(fams, family{Name: name, Help: unescapeHelp(help)})
		case strings.HasPrefix(line, "# TYPE "):
			rest := line[len("# TYPE "):]
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("line %d: TYPE without a type", lineNo)
			}
			if !helpFor[name] {
				return nil, fmt.Errorf("line %d: TYPE %s before its HELP", lineNo, name)
			}
			i := byName[name]
			if fams[i].Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
			}
			switch metricType(typ) {
			case typeCounter, typeGauge:
				fams[i].Type = metricType(typ)
			default:
				return nil, fmt.Errorf("line %d: unsupported metric type %q", lineNo, typ)
			}
			if len(fams[i].Samples) > 0 {
				return nil, fmt.Errorf("line %d: TYPE %s after its samples", lineNo, name)
			}
		case strings.HasPrefix(line, "#"):
			// Other comments are legal and ignored.
		default:
			name, labels, val, err := parseSample(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			i, ok := byName[name]
			if !ok || fams[i].Type == "" {
				return nil, fmt.Errorf("line %d: sample for %q without HELP/TYPE", lineNo, name)
			}
			key := sampleKey(name, labels)
			if seen[key] {
				return nil, fmt.Errorf("line %d: duplicate sample %s", lineNo, key)
			}
			seen[key] = true
			fams[i].Samples = append(fams[i].Samples, sample{Labels: labels, Value: val})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range fams {
		if f.Type == "" {
			return nil, fmt.Errorf("family %q has HELP but no TYPE", f.Name)
		}
		if len(f.Samples) == 0 {
			return nil, fmt.Errorf("family %q has no samples", f.Name)
		}
	}
	return fams, nil
}

// parseSample parses one sample line: name[{labels}] value.
func parseSample(line string) (string, []promLabel, float64, error) {
	var name, rest string
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		end := strings.LastIndexByte(line, '}')
		if end < i {
			return "", nil, 0, fmt.Errorf("unterminated label set")
		}
		labels, err := parseLabels(line[i+1 : end])
		if err != nil {
			return "", nil, 0, err
		}
		if !validMetricName(name) {
			return "", nil, 0, fmt.Errorf("bad metric name %q", name)
		}
		val, err := parseValue(line[end+1:])
		return name, labels, val, err
	}
	name, rest, _ = strings.Cut(line, " ")
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("bad metric name %q", name)
	}
	val, err := parseValue(rest)
	return name, nil, val, err
}

// parseValue parses the value (and rejects trailing garbage; we never emit
// timestamps).
func parseValue(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("sample without a value")
	}
	if strings.ContainsAny(s, " \t") {
		return 0, fmt.Errorf("unexpected trailing fields in %q", s)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", s)
	}
	return v, nil
}

// parseLabels parses the inside of a {...} label set, validating names and
// escape sequences.
func parseLabels(s string) ([]promLabel, error) {
	var out []promLabel
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=' in %q", s[i:])
		}
		name := s[i : i+eq]
		if !validLabelName(name) {
			return nil, fmt.Errorf("bad label name %q", name)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, fmt.Errorf("label %s: value not quoted", name)
		}
		i++
		var b strings.Builder
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Errorf("label %s: dangling backslash", name)
				}
				switch s[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return nil, fmt.Errorf("label %s: illegal escape \\%c", name, s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		if !closed {
			return nil, fmt.Errorf("label %s: unterminated value", name)
		}
		out = append(out, promLabel{Name: name, Value: b.String()})
		if i < len(s) {
			if s[i] != ',' {
				return nil, fmt.Errorf("expected ',' between labels, got %q", s[i:])
			}
			i++
		}
	}
	return out, nil
}

// sampleKey identifies a sample by family name + sorted label set.
func sampleKey(name string, labels []promLabel) string {
	ls := append([]promLabel(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteString(name)
	for _, l := range ls {
		fmt.Fprintf(&b, "{%s=%q}", l.Name, l.Value)
	}
	return b.String()
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}
