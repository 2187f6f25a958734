package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesTables: BENCHMARK.json declares exactly the
// metrics, with the units, that the program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func TestValuesOnlyReportsListedMetrics(t *testing.T) {
	m := values{}
	m.set("ops_per_s", 3)
	m.set("unlisted", 1)
	m.set("setup_s", 0.0/zero())
	out := m.only(endToEnd)
	if len(out) != len(endToEnd) {
		t.Fatalf("reported %d metrics, want %d", len(out), len(endToEnd))
	}
	if out["ops_per_s"] != (metric{3, "1/s"}) || out["setup_s"].Value != 0 || out["peak_rss_mb"].Unit != "MiB" {
		t.Errorf("reported %v", out)
	}
	if _, ok := out["unlisted"]; ok {
		t.Error("unlisted metric reported")
	}
}

func zero() float64 { return 0 }

func TestCheckHarness(t *testing.T) {
	path := filepath.Join(t.TempDir(), "harness.json")
	doc := `{"results":{"experiments":[{"name":"fork","metrics":{"hmmer.cow.cycles":10,"lbm.cow.cycles":20}}]}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkHarness(path, "fork", map[string]uint64{"hmmer.cow.cycles": 10, "hmmer.oow.cycles": 3}); err != nil {
		t.Errorf("matching outputs: %v", err)
	}
	if err := checkHarness(path, "fork", map[string]uint64{"hmmer.cow.cycles": 11}); err == nil ||
		!strings.Contains(err.Error(), "hmmer.cow.cycles") {
		t.Errorf("mismatch not reported: %v", err)
	}
	if err := checkHarness(path, "fork", map[string]uint64{"tonto.cow.cycles": 1}); err == nil {
		t.Error("outputs no recorded metric covers were accepted")
	}
}

func TestReadExportChecksSchemaAndCommand(t *testing.T) {
	f, err := readExport("fork", []byte(forkExport))
	if err != nil || f.cycles != 12 || f.harness["hmmer.oow.cycles"] != 7 {
		t.Errorf("readExport = %+v, %v", f, err)
	}
	for _, bad := range []string{
		`{"schema_version":2,"command":"fork"}`,
		`{"schema_version":1,"command":"spmv"}`,
		`{"schema_version":1,"command":"fork","results":{}}`,
	} {
		if _, err := readExport("fork", []byte(bad)); err == nil {
			t.Errorf("readExport accepted %s", bad)
		}
	}
}
