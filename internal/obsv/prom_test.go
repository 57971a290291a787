package obsv

import (
	"reflect"
	"strings"
	"testing"
)

func TestWritePromRoundTrip(t *testing.T) {
	t.Parallel()
	fams := []family{
		{Name: "a_total", Help: "a counter", Type: typeCounter, Samples: []sample{
			{Value: 42},
		}},
		{Name: "b_bytes", Help: `tricky help with \ backslash`, Type: typeGauge, Samples: []sample{
			{Labels: []promLabel{{"run", "redis/thermostat"}, {"tier", "0"}}, Value: 1.5},
			{Labels: []promLabel{{"run", "redis/thermostat"}, {"tier", "1"}}, Value: 0},
			{Labels: []promLabel{{"run", `we"ird\lab` + "\nel"}}, Value: -3},
		}},
		{Name: "empty_family_skipped", Help: "no samples", Type: typeGauge},
	}
	var sb strings.Builder
	if err := writeProm(&sb, fams); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if strings.Contains(text, "empty_family_skipped") {
		t.Fatalf("sample-less family emitted:\n%s", text)
	}
	if !strings.Contains(text, `run="we\"ird\\lab\nel"`) {
		t.Fatalf("label escaping wrong:\n%s", text)
	}

	got, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseProm rejected our own output: %v\n%s", err, text)
	}
	want := fams[:2]
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %#v\nwant %#v", got, want)
	}
}

func TestParsePromRejections(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		in   string
		want string // error substring
	}{
		{"sample without HELP/TYPE", "x_total 1\n", "without HELP/TYPE"},
		{"TYPE before HELP", "# TYPE x_total counter\nx_total 1\n", "before its HELP"},
		{"HELP only", "# HELP x_total help\nx_total 1\n", "without HELP/TYPE"},
		{"family with no samples", "# HELP x_total h\n# TYPE x_total counter\n", "no samples"},
		{"duplicate family", "# HELP x h\n# TYPE x gauge\nx 1\n# HELP x h\n", "duplicate family"},
		{"duplicate TYPE", "# HELP x h\n# TYPE x gauge\n# TYPE x gauge\nx 1\n", "duplicate TYPE"},
		{"TYPE after samples", "# HELP x h\n# TYPE x gauge\nx 1\n# HELP y h\n# TYPE y gauge\ny 2\n# TYPE x gauge\n", "duplicate TYPE"},
		{"unsupported type", "# HELP x h\n# TYPE x histogram\nx 1\n", "unsupported metric type"},
		{"bad metric name", "# HELP 9x h\n# TYPE 9x gauge\n9x 1\n", "bad metric name"},
		{"duplicate sample", "# HELP x h\n# TYPE x gauge\nx{a=\"1\"} 1\nx{a=\"1\"} 2\n", "duplicate sample"},
		{"reordered duplicate labels", "# HELP x h\n# TYPE x gauge\nx{a=\"1\",b=\"2\"} 1\nx{b=\"2\",a=\"1\"} 2\n", "duplicate sample"},
		{"bad escape", "# HELP x h\n# TYPE x gauge\nx{a=\"\\t\"} 1\n", "illegal escape"},
		{"unterminated label value", "# HELP x h\n# TYPE x gauge\nx{a=\"1} 1\n", "unterminated"},
		{"unquoted label value", "# HELP x h\n# TYPE x gauge\nx{a=1} 1\n", "not quoted"},
		{"bad label name", "# HELP x h\n# TYPE x gauge\nx{__a=\"1\"} 1\n", "bad label name"},
		{"missing value", "# HELP x h\n# TYPE x gauge\nx \n", "without a value"},
		{"bad value", "# HELP x h\n# TYPE x gauge\nx nope\n", "bad sample value"},
		{"trailing fields", "# HELP x h\n# TYPE x gauge\nx 1 1234567\n", "trailing fields"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, err := ParseProm(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("accepted invalid input:\n%s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParsePromIgnoresCommentsAndBlanks(t *testing.T) {
	t.Parallel()
	in := "# a plain comment\n\n# HELP x h\n# TYPE x counter\n\nx 7\n# trailing comment\n"
	fams, err := ParseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || fams[0].Samples[0].Value != 7 {
		t.Fatalf("parsed %#v", fams)
	}
}
