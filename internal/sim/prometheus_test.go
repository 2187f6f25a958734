package sim

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"dram.read_cycles":   "dram_read_cycles",
		"core.cow-copies":    "core_cow_copies",
		"tlb walk":           "tlb_walk",
		"9lives":             "_9lives",
		"ok_name:subsystem0": "ok_name:subsystem0",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusRoundTrip renders a populated registry and feeds
// it back through the parser: every counter value survives, every
// histogram has monotonically non-decreasing cumulative buckets ending
// at +Inf == _count, and every metric declares a TYPE.
func TestWritePrometheusRoundTrip(t *testing.T) {
	s := &Stats{}
	s.Add("dram.reads", 123)
	s.Add("core.overlaying_writes", 7)
	h := s.Histogram("dram.read_cycles")
	for _, v := range []uint64{0, 1, 3, 3, 17, 17, 200, 5000} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, "overlaysim_", s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	samples, types, err := ParsePrometheus(strings.NewReader(out))
	if err != nil {
		t.Fatalf("rendered output does not parse: %v\n%s", err, out)
	}

	byName := map[string][]PromSample{}
	for _, smp := range samples {
		byName[smp.Name] = append(byName[smp.Name], smp)
	}
	if v := byName["overlaysim_dram_reads"]; len(v) != 1 || v[0].Value != 123 {
		t.Errorf("dram.reads sample = %v", v)
	}
	if types["overlaysim_dram_reads"] != "counter" {
		t.Errorf("dram.reads TYPE = %q", types["overlaysim_dram_reads"])
	}
	if types["overlaysim_dram_read_cycles"] != "histogram" {
		t.Errorf("histogram TYPE = %q", types["overlaysim_dram_read_cycles"])
	}

	buckets := byName["overlaysim_dram_read_cycles_bucket"]
	if len(buckets) < 2 {
		t.Fatalf("histogram has %d bucket samples", len(buckets))
	}
	prevLe := math.Inf(-1)
	prevCum := -1.0
	for _, b := range buckets {
		le := math.Inf(1)
		if b.Le != "+Inf" {
			var err error
			le, err = parsePromValue(b.Le)
			if err != nil {
				t.Fatalf("bucket le %q: %v", b.Le, err)
			}
		}
		if le <= prevLe {
			t.Errorf("bucket le %v not increasing after %v", le, prevLe)
		}
		if b.Value < prevCum {
			t.Errorf("bucket counts not cumulative: %v after %v", b.Value, prevCum)
		}
		prevLe, prevCum = le, b.Value
	}
	last := buckets[len(buckets)-1]
	if last.Le != "+Inf" {
		t.Errorf("last bucket le = %q, want +Inf", last.Le)
	}
	count := byName["overlaysim_dram_read_cycles_count"]
	sum := byName["overlaysim_dram_read_cycles_sum"]
	if len(count) != 1 || count[0].Value != float64(h.Count()) {
		t.Errorf("_count = %v, want %d", count, h.Count())
	}
	if last.Value != count[0].Value {
		t.Errorf("+Inf bucket %v != _count %v", last.Value, count[0].Value)
	}
	if len(sum) != 1 || sum[0].Value != float64(h.Sum()) {
		t.Errorf("_sum = %v, want %d", sum, h.Sum())
	}
}

// TestWritePrometheusEmpty renders the zero registry (valid, empty).
func TestWritePrometheusEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, "x_", &Stats{}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty registry rendered %q", buf.String())
	}
	if _, _, err := ParsePrometheus(&buf); err != nil {
		t.Errorf("empty exposition rejected: %v", err)
	}
}

// TestParsePrometheusRejectsMalformed guards the parser itself.
func TestParsePrometheusRejectsMalformed(t *testing.T) {
	for name, doc := range map[string]string{
		"no value":         "metric_without_value\n",
		"bad value":        "m one\n",
		"unquoted label":   `m{job=x} 1` + "\n",
		"unclosed label":   `m{job="x} 1` + "\n",
		"empty label name": `m{="x"} 1` + "\n",
		"dangling escape":  `m{job="x\"} 1` + "\n",
		"unknown escape":   `m{job="x\q"} 1` + "\n",
		"one quote":        `x{a="} 1`,
	} {
		if _, _, err := ParsePrometheus(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: parser accepted %q", name, doc)
		}
	}
}

// TestParsePrometheusLineLimit: the scanner buffer grows to fit a long
// line, up to 1 MiB; a longer line is an error, not a truncated sample.
func TestParsePrometheusLineLimit(t *testing.T) {
	long := `m{job="` + strings.Repeat("x", 200<<10) + `"} 1` + "\n"
	samples, _, err := ParsePrometheus(strings.NewReader("a 1\n" + long + "b 2\n"))
	if err != nil {
		t.Fatalf("200 KB line rejected: %v", err)
	}
	if len(samples) != 3 || len(samples[1].LabelVal) != 200<<10 || samples[2].Name != "b" {
		t.Fatalf("parsed %d samples around a 200 KB line", len(samples))
	}
	huge := `m{job="` + strings.Repeat("x", 1<<20) + `"} 1` + "\n"
	if _, _, err := ParsePrometheus(strings.NewReader(huge)); err == nil {
		t.Error("a line over 1 MiB parsed")
	}
}

// TestWritePrometheusBucketBoundaries pins the power-of-two → le
// mapping at the bucket edges: a value equal to a bucket's inclusive
// upper bound must be counted under exactly that le, and the next
// value must open the next bucket.
func TestWritePrometheusBucketBoundaries(t *testing.T) {
	s := &Stats{}
	h := s.Histogram("edge")
	// Bucket 0 holds {0}; bucket k holds [2^(k-1), 2^k - 1]. Observe
	// both edges of the [4,7] bucket plus its neighbours.
	for _, v := range []uint64{0, 3, 4, 7, 8} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, "", s); err != nil {
		t.Fatal(err)
	}
	samples, _, err := ParsePrometheus(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	cumByLe := map[string]float64{}
	for _, smp := range samples {
		if smp.Name == "edge_bucket" {
			cumByLe[smp.Le] = smp.Value
		}
	}
	// Cumulative counts: le 0 → {0}; le 3 → +{3}; le 7 → +{4,7};
	// le 15 → +{8}; +Inf → total.
	for le, want := range map[string]float64{
		"0": 1, "3": 2, "7": 4, "15": 5, "+Inf": 5,
	} {
		if got, ok := cumByLe[le]; !ok || got != want {
			t.Errorf("cumulative bucket le=%q = %v (present %v), want %v", le, got, ok, want)
		}
	}
	if len(cumByLe) != 5 {
		t.Errorf("bucket les = %v, want exactly {0,3,7,15,+Inf}", cumByLe)
	}
}

// TestWritePrometheusZeroCountSeries renders a registry holding a
// zero-valued counter and a histogram that never observed a sample:
// both must still expose well-formed series (a 0 counter; an empty
// histogram with only the mandatory +Inf bucket, _sum 0, _count 0).
func TestWritePrometheusZeroCountSeries(t *testing.T) {
	s := &Stats{}
	s.Add("touched.then_zero", 0)
	s.Histogram("never.observed")
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, "p_", s); err != nil {
		t.Fatal(err)
	}
	samples, types, err := ParsePrometheus(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	got := map[string]PromSample{}
	for _, smp := range samples {
		got[smp.Name+"/"+smp.Le] = smp
	}
	if smp, ok := got["p_touched_then_zero/"]; !ok || smp.Value != 0 {
		t.Errorf("zero counter sample = %+v (present %v)", smp, ok)
	}
	if smp, ok := got["p_never_observed_bucket/+Inf"]; !ok || smp.Value != 0 {
		t.Errorf("empty histogram +Inf bucket = %+v (present %v)", smp, ok)
	}
	for _, name := range []string{"p_never_observed_sum", "p_never_observed_count"} {
		if smp, ok := got[name+"/"]; !ok || smp.Value != 0 {
			t.Errorf("%s = %+v (present %v), want 0", name, smp, ok)
		}
	}
	if n := len(samples); n != 4 {
		t.Errorf("rendered %d samples, want 4 (counter, +Inf, _sum, _count)", n)
	}
	if types["p_never_observed"] != "histogram" {
		t.Errorf("empty histogram TYPE = %q", types["p_never_observed"])
	}
}

// TestPromLabelEscapingRoundTrip writes labelled samples whose values
// contain every escapable character and parses them back.
func TestPromLabelEscapingRoundTrip(t *testing.T) {
	values := []string{
		`plain`,
		`with "quotes"`,
		`back\slash`,
		"new\nline",
		`trailing backslash\`,
		`all three: \ " ` + "\n",
		`ends with quote"`,
		`"}`, // label-closer inside the value
		``,
	}
	var doc strings.Builder
	for i, v := range values {
		fmt.Fprintf(&doc, "m_%d{code=\"%s\"} %d\n", i, PromEscapeLabel(v), i)
	}
	samples, _, err := ParsePrometheus(strings.NewReader(doc.String()))
	if err != nil {
		t.Fatalf("escaped document does not parse: %v\n%s", err, doc.String())
	}
	if len(samples) != len(values) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(values))
	}
	for i, smp := range samples {
		if smp.Label != "code" || smp.LabelVal != values[i] {
			t.Errorf("sample %d: label %q=%q, want code=%q", i, smp.Label, smp.LabelVal, values[i])
		}
		if smp.Le != "" {
			t.Errorf("sample %d: non-le label leaked into Le: %q", i, smp.Le)
		}
		if smp.Value != float64(i) {
			t.Errorf("sample %d: value %v, want %d", i, smp.Value, i)
		}
	}
	// le labels keep populating the Le convenience field.
	smp, _, err := ParsePrometheus(strings.NewReader("h_bucket{le=\"+Inf\"} 3\n"))
	if err != nil || len(smp) != 1 || smp[0].Le != "+Inf" || smp[0].LabelVal != "+Inf" {
		t.Fatalf("le sample = %+v (%v)", smp, err)
	}
}
