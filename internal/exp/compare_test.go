package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/core"
)

// quickCompareParams is the small cross-backend matrix the tests run:
// every backend, one benchmark, a short fork window, one matrix.
func quickCompareParams() CompareParams {
	return CompareParams{Bench: "mcf", Warm: 20_000, Measure: 40_000, Matrices: 1}
}

func TestCompareReportShape(t *testing.T) {
	report, err := RunComparePool(context.Background(), Pool{Parallel: 2}, quickCompareParams())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(report.Backends), len(core.Backends()); got != want {
		t.Fatalf("report covers %d backends, want %d", got, want)
	}
	for i, b := range report.Backends {
		if b.Backend != core.Backends()[i] {
			t.Errorf("backend %d = %q, want sorted order %q", i, b.Backend, core.Backends()[i])
		}
		if b.Fork.Cycles == 0 {
			t.Errorf("%s: fork leg retired no cycles", b.Backend)
		}
		if b.SpMV.CSRCycles == 0 {
			t.Errorf("%s: spmv CSR leg retired no cycles", b.Backend)
		}
		if b.MetadataBytes <= 0 {
			t.Errorf("%s: metadata_bytes = %d, want > 0", b.Backend, b.MetadataBytes)
		}
		// Each backend's translation machinery must show activity: VBI
		// has no core-side TLB (virtually-tagged caches), so its MTL
		// stands in for it.
		translated := b.Counters["tlb.l1_hits"]
		if b.Backend == "vbi" {
			translated = b.Counters["vbi.mtl_hits"]
		}
		if len(b.Counters) == 0 || translated == 0 {
			t.Errorf("%s: counters missing translation activity: %v", b.Backend, b.Counters)
		}
		wantMech := "cow"
		if b.Backend == core.DefaultBackend {
			wantMech = "oow"
		}
		if b.Fork.Mechanism != wantMech {
			t.Errorf("%s: mechanism %q, want %q", b.Backend, b.Fork.Mechanism, wantMech)
		}
		// Only the overlay backend can run the overlay representation.
		if has := b.SpMV.OverlayCycles != 0; has != (b.Backend == core.DefaultBackend) {
			t.Errorf("%s: overlay_cycles = %d", b.Backend, b.SpMV.OverlayCycles)
		}
	}
}

// TestCompareParallelDeterminism is the worker-count half of the
// bit-identity property: the same compare spec must export identical
// bytes whether the backends run one at a time or fanned across four
// workers.
func TestCompareParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-backend determinism sweep is slow")
	}
	q := quickCompareParams()
	spec := JobSpec{Experiment: "compare", Bench: q.Bench,
		Warm: q.Warm, Measure: q.Measure, Matrices: q.Matrices}
	var exports [][]byte
	for _, pool := range []Pool{{Parallel: 1}, {Parallel: 4}} {
		out, err := spec.Run(context.Background(), pool)
		if err != nil {
			t.Fatalf("parallel=%d: %v", pool.Parallel, err)
		}
		exports = append(exports, comparableExport(t, out))
	}
	for i, b := range exports[1:] {
		if !bytes.Equal(exports[0], b) {
			t.Errorf("export %d diverges from the parallel=1 run\nfirst:\n%s\nother:\n%s",
				i+1, exports[0], b)
		}
	}
}

// TestCompareExportMatchesSchema validates a compare export against the
// checked-in JSON schema (docs/schema/compare.schema.json). By default
// it validates an in-process run, which pins the schema to the code; CI
// sets COMPARE_JSON to re-validate each backend's emitted report file.
func TestCompareExportMatchesSchema(t *testing.T) {
	schema := loadSchema(t, "../../docs/schema/compare.schema.json")
	var doc any
	if path := os.Getenv("COMPARE_JSON"); path != "" {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	} else {
		params := quickCompareParams()
		report, err := RunComparePool(context.Background(), Pool{Parallel: 2}, params)
		if err != nil {
			t.Fatal(err)
		}
		ex := CompareExport(params, report)
		b, err := json.Marshal(ex)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
	}
	if errs := validateSchema(schema, doc, "$"); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
	}
}

func loadSchema(t *testing.T, path string) map[string]any {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var schema map[string]any
	if err := json.Unmarshal(b, &schema); err != nil {
		t.Fatalf("decode schema: %v", err)
	}
	return schema
}

// validateSchema checks doc against the subset of JSON Schema the
// checked-in schemas use: type, enum, properties, required,
// additionalProperties (false or a schema), items, minItems, minimum.
// It returns every violation with a JSONPath-style location. A tiny
// in-tree validator keeps the schema load-bearing without pulling in a
// dependency.
func validateSchema(schema map[string]any, doc any, at string) []string {
	var errs []string
	fail := func(format string, args ...any) {
		errs = append(errs, at+": "+fmt.Sprintf(format, args...))
	}

	if enum, ok := schema["enum"].([]any); ok {
		match := false
		for _, v := range enum {
			if v == doc {
				match = true
				break
			}
		}
		if !match {
			fail("value %v not in enum %v", doc, enum)
		}
		return errs
	}

	switch schema["type"] {
	case "object":
		obj, ok := doc.(map[string]any)
		if !ok {
			return append(errs, fmt.Sprintf("%s: want object, got %T", at, doc))
		}
		if req, ok := schema["required"].([]any); ok {
			for _, k := range req {
				if _, present := obj[k.(string)]; !present {
					fail("missing required property %q", k)
				}
			}
		}
		props, _ := schema["properties"].(map[string]any)
		for k, v := range obj {
			sub, known := props[k]
			if known {
				errs = append(errs, validateSchema(sub.(map[string]any), v, at+"."+k)...)
				continue
			}
			switch ap := schema["additionalProperties"].(type) {
			case bool:
				if !ap {
					fail("unexpected property %q", k)
				}
			case map[string]any:
				errs = append(errs, validateSchema(ap, v, at+"."+k)...)
			}
		}
	case "array":
		arr, ok := doc.([]any)
		if !ok {
			return append(errs, fmt.Sprintf("%s: want array, got %T", at, doc))
		}
		if min, ok := schema["minItems"].(float64); ok && float64(len(arr)) < min {
			fail("array has %d items, want >= %.0f", len(arr), min)
		}
		if items, ok := schema["items"].(map[string]any); ok {
			for i, v := range arr {
				errs = append(errs, validateSchema(items, v, fmt.Sprintf("%s[%d]", at, i))...)
			}
		}
	case "integer", "number":
		n, ok := doc.(float64)
		if !ok {
			return append(errs, fmt.Sprintf("%s: want %s, got %T", at, schema["type"], doc))
		}
		if schema["type"] == "integer" && n != math.Trunc(n) {
			fail("want integer, got %v", n)
		}
		if min, ok := schema["minimum"].(float64); ok && n < min {
			fail("%v below minimum %v", n, min)
		}
	case "string":
		if _, ok := doc.(string); !ok {
			fail("want string, got %T", doc)
		}
	case "boolean":
		if _, ok := doc.(bool); !ok {
			fail("want boolean, got %T", doc)
		}
	case nil:
		// No type constraint: nothing to check.
	default:
		fail("schema uses unsupported type %v", schema["type"])
	}
	return errs
}
