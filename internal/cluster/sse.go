package cluster

import (
	"bufio"
	"bytes"
	"io"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data []byte
}

// sseReader incrementally parses the subset of the SSE wire format
// the worker emits: `event:` + `data:` lines separated by blank
// lines. Comments and id/retry fields are ignored.
type sseReader struct {
	r *bufio.Reader
}

func newSSEReader(r io.Reader) *sseReader {
	return &sseReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// next blocks until one complete event arrives. io.EOF (or any read
// error) before a complete event reports the stream broken.
func (s *sseReader) next() (sseEvent, error) {
	var ev sseEvent
	var data bytes.Buffer
	for {
		line, err := s.r.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = trimEOL(line)
		switch {
		case line == "":
			if ev.name != "" || data.Len() > 0 {
				ev.data = append([]byte(nil), data.Bytes()...)
				return ev, nil
			}
		case bytes.HasPrefix([]byte(line), []byte("event:")):
			ev.name = trimFieldValue(line[len("event:"):])
		case bytes.HasPrefix([]byte(line), []byte("data:")):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(trimFieldValue(line[len("data:"):]))
		}
	}
}

func trimEOL(s string) string {
	for len(s) > 0 && (s[len(s)-1] == '\n' || s[len(s)-1] == '\r') {
		s = s[:len(s)-1]
	}
	return s
}

// trimFieldValue strips the single optional leading space the SSE
// format allows after the field colon.
func trimFieldValue(s string) string {
	if len(s) > 0 && s[0] == ' ' {
		return s[1:]
	}
	return s
}
