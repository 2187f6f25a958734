package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestSSEReaderFraming pins how the reader frames the streams in the
// seed corpus: CRLF line ends, comments, multi-line data and a stream
// cut before its blank line.
func TestSSEReaderFraming(t *testing.T) {
	for _, tc := range []struct {
		name, stream string
		want         []sseEvent // then io.EOF
	}{
		{"lf", "event: progress\ndata: {}\n\n", []sseEvent{{"progress", []byte("{}")}}},
		{"crlf", "event: progress\r\ndata: {}\r\n\r\n", []sseEvent{{"progress", []byte("{}")}}},
		{"comments", ": ping\nevent: done\n: note\ndata:{}\n\n", []sseEvent{{"done", []byte("{}")}}},
		{"multi-line data", "event: done\ndata: {\"a\":\ndata: 1}\n\n", []sseEvent{{"done", []byte("{\"a\":\n1}")}}},
		{"no final blank line", "event: done\ndata: {}\n", nil},
	} {
		r := newSSEReader(strings.NewReader(tc.stream))
		for _, w := range tc.want {
			if ev, err := r.next(); err != nil || ev.name != w.name || !bytes.Equal(ev.data, w.data) {
				t.Errorf("%s: got %q %q (%v), want %q %q", tc.name, ev.name, ev.data, err, w.name, w.data)
			}
		}
		if _, err := r.next(); err != io.EOF {
			t.Errorf("%s: stream end = %v, want io.EOF", tc.name, err)
		}
	}
}

// FuzzSSEReader holds the remote executor's only parser of worker
// bytes to two properties: on any input it neither panics nor spins,
// and on a stream the worker's own writers produce — with the input as
// the payload — it returns exactly the event names and data written.
func FuzzSSEReader(f *testing.F) {
	f.Add([]byte(`event: progress` + "\n" + `data: {"done":1,"total":2,"failed":0}` + "\n\n"))
	// A data line longer than the reader's 64 KiB buffer.
	f.Add([]byte("event: done\ndata: \"" + strings.Repeat("x", 65<<10) + "\"\n\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Every event consumes at least one line, so more events than
		// input bytes would mean the reader is spinning.
		r := newSSEReader(bytes.NewReader(raw))
		for n := 0; ; n++ {
			if _, err := r.next(); err != nil {
				break
			}
			if n > len(raw) {
				t.Fatalf("%d events from %d bytes", n, len(raw))
			}
		}

		payload := string(raw)
		result, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		doc := server.JobDoc{ID: "job-000001", State: server.StateDone, Error: payload, Result: result}
		var stream bytes.Buffer
		if err := server.WriteSSE(&stream, "progress", payload); err != nil {
			t.Fatal(err)
		}
		if err := server.WriteDocEvent(&stream, server.StateDone, doc); err != nil {
			t.Fatal(err)
		}
		docData, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		r = newSSEReader(&stream)
		for _, w := range []sseEvent{{"progress", result}, {server.StateDone, docData}} {
			ev, err := r.next()
			if err != nil || ev.name != w.name || !bytes.Equal(ev.data, w.data) {
				t.Fatalf("read %q %.80q (%v), want %q %.80q", ev.name, ev.data, err, w.name, w.data)
			}
		}
		if _, err := r.next(); err != io.EOF {
			t.Fatalf("stream end = %v, want io.EOF", err)
		}
	})
}
