package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestServeMatchesCLI is the end-to-end contract of the serving layer:
// a job submitted over HTTP returns byte-for-byte the export the CLI
// writes with -json for the same invocation, for every experiment; a
// duplicate submission is served from cache without another engine run;
// and a stop request drains the server cleanly (exit 0).
func TestServeMatchesCLI(t *testing.T) {
	cases := []struct {
		args []string // the CLI invocation, without -json
		spec string   // the same job as a spec
	}{
		{[]string{"fork", "-bench=hmmer", "-warm=20000", "-measure=50000"},
			`{"experiment":"fork","bench":"hmmer","warm":20000,"measure":50000}`},
		{[]string{"fork", "-bench=hmmer", "-warm=20000", "-measure=50000", "-backend=vbi"},
			`{"experiment":"fork","bench":"hmmer","warm":20000,"measure":50000,"backend":"vbi"}`},
		{[]string{"spmv", "-matrices=2", "-dense"}, `{"experiment":"spmv","matrices":2,"dense":true}`},
		{[]string{"linesize", "-matrices=3"}, `{"experiment":"linesize","matrices":3}`},
		{[]string{"sweep", "-points=3", "-rows=64"}, `{"experiment":"sweep","points":3,"rows":64}`},
		{[]string{"dualcore"}, `{"experiment":"dualcore"}`},
		{[]string{"compare", "-bench=hmmer", "-warm=20000", "-measure=40000", "-matrices=1"},
			`{"experiment":"compare","bench":"hmmer","warm":20000,"measure":40000,"matrices":1}`},
		{[]string{"compare", "-bench=hmmer", "-warm=20000", "-measure=40000", "-matrices=1", "-backend=overlay"},
			`{"experiment":"compare","bench":"hmmer","warm":20000,"measure":40000,"matrices":1,"backend":"overlay"}`},
		{[]string{"omsstress", "-tenants=2", "-ops=2000", "-segments=16"},
			`{"experiment":"omsstress","tenants":2,"ops":2000,"segments":16}`},
		{[]string{"omsstress", "-tenants=2", "-ops=2000", "-segments=16", "-oms-capacity=4"},
			`{"experiment":"omsstress","tenants":2,"ops":2000,"segments":16,"oms_capacity":4}`},
		{[]string{"omsstress", "-tenants=2", "-ops=2000", "-segments=16", "-oms-capacity=-1", "-oms-spill=false"},
			`{"experiment":"omsstress","tenants":2,"ops":2000,"segments":16,"oms_capacity":-1,"nospill":true}`},
		{[]string{"omsstress", "-tenants=2", "-ops=2000", "-segments=16", "-shared"},
			`{"experiment":"omsstress","tenants":2,"ops":2000,"segments":16,"shared":true}`},
	}

	defer func() { serveReady, serveStop = nil, nil }()

	// serve starts a server with the default configuration, its snapshot
	// cache on, on a free port via the test hooks. It returns the base
	// URL and a drain function that stops the server the way a SIGTERM
	// would and expects a clean drain (exit 0).
	serve := func() (base string, drain func()) {
		t.Helper()
		ready := make(chan string, 1)
		stop := make(chan struct{})
		serveReady, serveStop = ready, stop
		exited := make(chan int, 1)
		var srvOut, srvErr bytes.Buffer
		go func() {
			exited <- run([]string{"serve", "-addr=127.0.0.1:0", "-workers=1", "-grace=30s"},
				&srvOut, &srvErr)
		}()
		var addr string
		select {
		case addr = <-ready:
		case code := <-exited:
			t.Fatalf("serve exited %d before listening, stderr: %s", code, srvErr.String())
		case <-time.After(10 * time.Second):
			t.Fatalf("serve never started listening")
		}
		return "http://" + addr, func() {
			t.Helper()
			close(stop)
			select {
			case code := <-exited:
				if code != 0 {
					t.Fatalf("serve exited %d, want 0 (stderr: %s)", code, srvErr.String())
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("serve did not exit after stop")
			}
			if !strings.Contains(srvErr.String(), "drained cleanly") {
				t.Errorf("serve stderr missing drain confirmation: %s", srvErr.String())
			}
		}
	}

	post := func(base, spec string) (int, server.JobDoc) {
		resp, err := http.Post(base+"/v1/jobs?wait=true", "application/json",
			strings.NewReader(spec))
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		defer resp.Body.Close()
		var doc server.JobDoc
		if resp.StatusCode < 300 {
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Fatalf("decoding job doc: %v", err)
			}
		}
		return resp.StatusCode, doc
	}

	// matchCLI runs one case through the CLI with -json and through the
	// server: the served result must be byte-identical to the CLI's file.
	matchCLI := func(base string, args []string, spec string) server.JobDoc {
		t.Helper()
		jsonPath := filepath.Join(t.TempDir(), "export.json")
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-json="+jsonPath), &stdout, &stderr); code != 0 {
			t.Fatalf("CLI %v exited %d, stderr: %s", args, code, stderr.String())
		}
		cliExport, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		status, doc := post(base, spec)
		if status != http.StatusOK || doc.State != "done" || doc.Cached {
			t.Fatalf("%s: status %d state %q cached %v, want 200/done/false",
				spec, status, doc.State, doc.Cached)
		}
		resp, err := http.Get(base + "/v1/jobs/" + doc.ID + "/result")
		if err != nil {
			t.Fatalf("GET result: %v", err)
		}
		served, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET result: status %d, err %v", resp.StatusCode, err)
		}
		if !bytes.Equal(served, cliExport) {
			t.Fatalf("%v: served result differs from CLI export (%d vs %d bytes)",
				args, len(served), len(cliExport))
		}
		return doc
	}

	// Each case gets a fresh server, so its job runs through the
	// server's shared snapshot cache while the cache is as empty as a
	// one-shot CLI run's. A family that an earlier job warmed would
	// change the served sim.snapshot counters (fork's hmmer window is
	// also compare's fork leg).
	for i, c := range cases {
		base, drain := serve()
		matchCLI(base, c.args, c.spec)
		if i == 0 {
			// A duplicate submission is a cache hit: no second engine run.
			status, dup := post(base, c.spec)
			if status != http.StatusOK || !dup.Cached {
				t.Fatalf("duplicate submit: status %d cached %v, want 200/true", status, dup.Cached)
			}
			mresp, err := http.Get(base + "/metrics")
			if err != nil {
				t.Fatalf("GET /metrics: %v", err)
			}
			metrics, _ := io.ReadAll(mresp.Body)
			mresp.Body.Close()
			if !strings.Contains(string(metrics), "overlaysim_server_engine_runs 1\n") {
				t.Fatalf("metrics do not show exactly one engine run:\n%s", metrics)
			}
		}
		drain()
	}
}
