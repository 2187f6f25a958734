package sim

// This file renders a Stats registry in the Prometheus text exposition
// format (version 0.0.4), so the telemetry the simulator already
// collects — counters and power-of-two latency histograms — can be
// scraped straight off a serving process's /metrics endpoint. The
// histogram buckets map onto Prometheus's cumulative le-labelled
// buckets exactly: bucket k's inclusive upper bound becomes the le
// value, counts accumulate left to right, and the mandatory +Inf
// bucket carries the total sample count.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PromName sanitises a registry name ("dram.read_cycles") into a
// Prometheus metric name ("dram_read_cycles"): every character outside
// [a-zA-Z0-9_:] becomes '_', and a leading digit is prefixed with '_'.
func PromName(name string) string {
	var sb strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			if r >= '0' && r <= '9' { // leading digit
				sb.WriteByte('_')
				sb.WriteRune(r)
				continue
			}
			sb.WriteByte('_')
			continue
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

// WritePrometheus renders every counter and histogram of the registry
// in Prometheus text format, each metric name prefixed with prefix
// (conventionally the serving binary's namespace, e.g. "overlaysim_").
// Counters are emitted as counter-typed samples in sorted name order;
// histograms become native Prometheus histograms with cumulative
// buckets, _sum and _count. The output is deterministic for a given
// registry state.
func WritePrometheus(w io.Writer, prefix string, s *Stats) error {
	for _, name := range s.Names() {
		metric := prefix + PromName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s simulator counter %s\n# TYPE %s counter\n%s %d\n",
			metric, name, metric, metric, s.Get(name)); err != nil {
			return err
		}
	}
	for _, name := range s.HistogramNames() {
		if err := writePromHistogram(w, prefix+PromName(name), name, s.Histogram(name)); err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram renders one histogram: one cumulative bucket line
// per non-empty power-of-two bucket, the mandatory +Inf bucket, then
// _sum and _count.
func writePromHistogram(w io.Writer, metric, name string, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# HELP %s simulator histogram %s\n# TYPE %s histogram\n",
		metric, name, metric); err != nil {
		return err
	}
	var cum uint64
	for i := 0; i < h.NumBuckets(); i++ {
		c := h.Bucket(i)
		if c == 0 {
			continue
		}
		cum += c
		_, hi := BucketBounds(i)
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", metric, hi, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		metric, h.Count(), metric, h.Sum(), metric, h.Count())
	return err
}

// PromEscapeLabel escapes a label value for the exposition format:
// backslash, double quote and newline become \\, \" and \n. Writers
// emitting labelled samples (the server's status-labelled response
// counters) must escape through here so ParsePrometheus — and any real
// Prometheus scraper — can read the value back.
func PromEscapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// promUnescapeLabel reverses PromEscapeLabel. A dangling or unknown
// escape is an error.
func promUnescapeLabel(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			sb.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("dangling escape in label value %q", s)
		}
		switch s[i] {
		case '\\':
			sb.WriteByte('\\')
		case '"':
			sb.WriteByte('"')
		case 'n':
			sb.WriteByte('\n')
		default:
			return "", fmt.Errorf("unknown escape \\%c in label value %q", s[i], s)
		}
	}
	return sb.String(), nil
}

// PromSample is one parsed exposition sample: the metric name, at most
// one label (name + unescaped value), and the sample value. Le is the
// label value when the label is "le" — the histogram-bucket form most
// callers care about — and "" otherwise.
type PromSample struct {
	Name     string
	Label    string // label name, "" for bare samples
	LabelVal string // unescaped label value
	Le       string
	Value    float64
}

// ParsePrometheus is a minimal exposition-format parser covering what
// this package's writers emit (and what the CI smoke test scrapes):
// # HELP / # TYPE comments, bare samples, and single-labelled samples
// (histogram le buckets, the server's status-labelled counters) with
// escaped label values. It returns the samples in input order together
// with the declared TYPE per metric, and rejects structurally
// malformed lines — tests use it to prove /metrics is valid, not
// merely present.
func ParsePrometheus(r io.Reader) (samples []PromSample, types map[string]string, err error) {
	types = make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grows from 4 KiB as long lines need, up to 1 MiB
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				types[fields[2]] = fields[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, nil, fmt.Errorf("prometheus: line %d: no value: %q", lineNo, line)
		}
		name, valStr := line[:sp], line[sp+1:]
		var label, labelVal string
		if i := strings.IndexByte(name, '{'); i >= 0 {
			var perr error
			label, labelVal, perr = parsePromLabel(name[i:])
			if perr != nil {
				return nil, nil, fmt.Errorf("prometheus: line %d: %v", lineNo, perr)
			}
			name = name[:i]
		}
		if name == "" || strings.ContainsAny(name, " \t") {
			return nil, nil, fmt.Errorf("prometheus: line %d: bad metric name %q", lineNo, name)
		}
		v, perr := parsePromValue(valStr)
		if perr != nil {
			return nil, nil, fmt.Errorf("prometheus: line %d: %v", lineNo, perr)
		}
		s := PromSample{Name: name, Label: label, LabelVal: labelVal, Value: v}
		if label == "le" {
			s.Le = labelVal
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return samples, types, nil
}

// parsePromLabel parses a single-label set `{name="value"}` with
// escaped value characters.
func parsePromLabel(s string) (label, value string, err error) {
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, `"}`) {
		return "", "", fmt.Errorf("unsupported labels %q", s)
	}
	// The value's opening quote must come before the closing `"}`:
	// `{a="}` has one quote, which cannot be both.
	eq := strings.IndexByte(s, '=')
	if eq < 0 || eq+4 > len(s) || s[eq+1] != '"' {
		return "", "", fmt.Errorf("unsupported labels %q", s)
	}
	label = s[1:eq]
	if label == "" || strings.ContainsAny(label, ` "{}`) {
		return "", "", fmt.Errorf("bad label name in %q", s)
	}
	raw := s[eq+2 : len(s)-2]
	// The closing quote found by the suffix check must not itself be
	// escaped: count the trailing backslashes before it.
	bs := 0
	for i := len(raw) - 1; i >= 0 && raw[i] == '\\'; i-- {
		bs++
	}
	if bs%2 == 1 {
		return "", "", fmt.Errorf("unterminated label value in %q", s)
	}
	value, err = promUnescapeLabel(raw)
	if err != nil {
		return "", "", err
	}
	return label, value, nil
}

func parsePromValue(s string) (float64, error) {
	if s == "+Inf" {
		return strconv.ParseFloat("+inf", 64)
	}
	return strconv.ParseFloat(s, 64)
}
