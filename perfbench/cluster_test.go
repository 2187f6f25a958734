package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/server"
)

func jobBody(t *testing.T, state, result string) []byte {
	t.Helper()
	b, err := json.Marshal(server.JobDoc{State: state, Result: json.RawMessage(result)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

const forkExport = `{"schema_version":1,"command":"fork","results":[{"Benchmark":"hmmer","CoW":{"Cycles":5},"OoW":{"Cycles":7}}]}`

func TestCheckResponse(t *testing.T) {
	ok := jobBody(t, server.StateDone, forkExport)
	want, err := jobResult(pathHit, http.StatusOK, pathHit, ok)
	if err != nil {
		t.Fatal(err)
	}
	hit := request{Path: pathHit, Repeat: 0}
	miss := request{Path: pathMiss, Repeat: -1, Spec: exp.JobSpec{Experiment: "fork"}}

	if _, err := checkResponse(hit, http.StatusOK, pathHit, ok, want); err != nil {
		t.Errorf("good hit: %v", err)
	}
	facts, err := checkResponse(miss, http.StatusOK, pathMiss, ok, nil)
	if err != nil || facts.cycles != 12 {
		t.Errorf("good miss: cycles %d, err %v", facts.cycles, err)
	}

	bad := []struct {
		name   string
		req    request
		status int
		cache  string
		body   []byte
		want   []byte
	}{
		{"wrong cache header", hit, http.StatusOK, pathMiss, ok, want},
		{"store answered from the LRU", request{Path: pathStore}, http.StatusOK, pathHit, ok, want},
		{"wrong bytes", hit, http.StatusOK, pathHit, jobBody(t, server.StateDone, `{"schema_version":1}`), want},
		{"not 200", hit, http.StatusTooManyRequests, pathHit, ok, want},
		{"job failed", hit, http.StatusOK, pathHit, jobBody(t, server.StateFailed, forkExport), want},
		{"miss of another experiment", request{Path: pathMiss, Spec: exp.JobSpec{Experiment: "sweep"}}, http.StatusOK, pathMiss, ok, nil},
		{"not a job document", hit, http.StatusOK, pathHit, []byte("<html>"), want},
	}
	for _, c := range bad {
		if _, err := checkResponse(c.req, c.status, c.cache, c.body, c.want); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestFailuresCountedWithoutLatency drives a client against a stub
// tier that answers every request as an LRU hit with fixed bytes. Only
// hits for repeat 0, whose reference matches those bytes, succeed: hits
// for other repeats fail on the bytes, and every hit-store and miss on
// the cache header. Failed requests count as attempted and give no
// latency sample.
func TestFailuresCountedWithoutLatency(t *testing.T) {
	body := jobBody(t, server.StateDone, forkExport)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(cacheHeader, pathHit)
		w.Write(body) //nolint:errcheck
	}))
	defer stub.Close()

	w := newClusterWorkload(defaultSeed, t.TempDir())
	defer w.client.CloseIdleConnections()
	w.coord = &tier{url: stub.URL}
	n := len(w.repeat)
	good, err := jobResult(pathHit, http.StatusOK, pathHit, body)
	if err != nil {
		t.Fatal(err)
	}
	w.owner = make([]string, n)
	w.refs = map[string][][]byte{pathHit: make([][]byte, n), pathStore: make([][]byte, n)}
	for i := range w.owner {
		w.owner[i] = stub.URL
		w.refs[pathHit][i] = []byte("other bytes")
		w.refs[pathStore][i] = good
	}
	w.refs[pathHit][0] = good

	w.phaseStart = time.Now()
	tl := w.runClient(context.Background(), 0, 300*time.Millisecond, nil)

	// Replay the client's sequence to count the requests that should
	// have succeeded.
	g := newClientGen(defaultSeed, 0)
	want := 0
	for i := 0; i < tl.attempted; i++ {
		if r := g.next(); r.Path == pathHit && r.Repeat == 0 {
			want++
		}
	}
	if want == 0 || tl.attempted-want < 10 {
		t.Fatalf("only %d requests sent", tl.attempted)
	}
	if got := len(tl.lat[pathHit]); got != want || tl.ok() != want || tl.failed != tl.attempted-want {
		t.Errorf("attempted %d: %d ok, %d failed, %d hit samples; want %d ok",
			tl.attempted, tl.ok(), tl.failed, got, want)
	}
	if len(tl.lat[pathStore])+len(tl.lat[pathMiss]) != 0 {
		t.Errorf("failed paths gave latency samples: %d store, %d miss", len(tl.lat[pathStore]), len(tl.lat[pathMiss]))
	}
}

func TestSameJSON(t *testing.T) {
	if !sameJSON([]byte("{\n  \"a\": [1, 2]\n}"), []byte(`{"a":[1,2]}`)) {
		t.Error("indentation counted as a difference")
	}
	if sameJSON([]byte(`{"a":1}`), []byte(`{"a":2}`)) {
		t.Error("different documents compared equal")
	}
}
