package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	cases := map[string]string{
		"repro/internal/cache.(*Cache).Lookup":                               "repro/internal/cache",
		"repro/internal/exp.RunForkSuitePool.func1":                          "repro/internal/exp",
		"repro/internal/harness.Map[go.shape.struct { repro/internal/x.Y }]": "repro/internal/harness",
		"net/http.(*conn).serve":                                             "net/http",
		"runtime.mallocgc":                                                   "runtime",
		"main.main":                                                          "main",
	}
	for in, want := range cases {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestLayerOfCannedStacks: the innermost repro/internal frame takes
// the sample, so allocation and library work count for their caller;
// stacks without one go to net, bench or the runtime.
func TestLayerOfCannedStacks(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.mallocgc", "runtime.makeslice", "repro/internal/cache.(*Cache).fill",
			"repro/internal/sim.(*Engine).Step", "repro/internal/exp.runMechanism"}, "cache"},
		{[]string{"math/rand.(*Rand).Int63", "repro/internal/sparse.BuildSuite",
			"repro/internal/exp.suiteSubset"}, "sparse"},
		{[]string{"encoding/json.(*encodeState).marshal", "repro/internal/server.writeJSON",
			"net/http.HandlerFunc.ServeHTTP", "net/http.(*conn).serve"}, "server"},
		{[]string{"repro/internal/techniques/metadata.New"}, "techniques"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read", "net.(*conn).Read",
			"net/http.(*persistConn).readLoop"}, layerNet},
		{[]string{"encoding/json.Unmarshal", "main.jobResult", "main.(*clusterWorkload).runClient"}, layerBench},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerRuntime},
		{nil, layerRuntime},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestDecodeRealProfile decodes a CPU profile the runtime wrote and
// finds the busy function's samples in it.
func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin time.Duration
	for _, s := range samples {
		total += s.cpu
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += s.cpu
				break
			}
		}
	}
	if spin < 100*time.Millisecond || spin > total {
		t.Errorf("spinForProfile has %v of %v profiled CPU, want most of 300ms", spin, total)
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decoding garbage succeeded")
	}
}
