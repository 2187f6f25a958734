package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"

	"repro/internal/exp"
)

// StatusWriter captures the response status for request middleware.
// It forwards Flush so SSE streaming keeps working through the wrap.
type StatusWriter struct {
	http.ResponseWriter
	Status int
}

func (w *StatusWriter) WriteHeader(code int) {
	if w.Status == 0 {
		w.Status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusWriter) Write(b []byte) (int, error) {
	if w.Status == 0 {
		w.Status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *StatusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error    string   `json:"error"`
	Problems []string `json:"problems,omitempty"`
	JobID    string   `json:"job_id,omitempty"`
}

// WriteJSON writes v as an indented JSON response. Job documents that
// carry a result go through WriteDoc instead.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// WriteError writes err as the JSON error body, with a validation
// error's problem list and the job it concerns, if any.
func WriteError(w http.ResponseWriter, status int, err error, jobID string) {
	body := errorBody{Error: err.Error(), JobID: jobID}
	var ve *exp.ValidationError
	if errors.As(err, &ve) {
		body.Problems = ve.Problems
	}
	WriteJSON(w, status, body)
}

// WriteSSE emits one event: `event: <name>` + single-line JSON data.
func WriteSSE(w io.Writer, event string, data interface{}) error {
	b, err := json.Marshal(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	return err
}

// WriteDoc writes a job document as the response WriteJSON would send,
// byte for byte, but splices d.Result in rather than have
// encoding/json validate, compact and re-indent the whole document.
func WriteDoc(w http.ResponseWriter, status int, d JobDoc) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if b, err := marshalDoc(d, true); err == nil {
		w.Write(b) //nolint:errcheck // client gone; nothing to do
	}
}

// WriteDocEvent emits a job document as one SSE event, its data line
// the bytes WriteSSE would send, with the result spliced as WriteDoc
// does.
func WriteDocEvent(w io.Writer, event string, d JobDoc) error {
	b, err := marshalDoc(d, false)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	return err
}

// marshalDoc renders d as encoding/json would: indented as by
// WriteJSON, or compact as by json.Marshal. Only the small fields go
// through encoding/json; d.Result, which must be valid JSON and stay
// JobDoc's last field, is appended by appendResult in one pass.
func marshalDoc(d JobDoc, indent bool) ([]byte, error) {
	result := d.Result
	d.Result = nil
	var b []byte
	var err error
	sep, end := `,"result":`, "}"
	if indent {
		// MarshalIndent emits what WriteJSON's Encoder does, less the
		// Encoder's closing newline.
		b, err = json.MarshalIndent(d, "", "  ")
		sep, end = ",\n  \"result\": ", "\n}"
	} else {
		b, err = json.Marshal(d)
	}
	if err != nil {
		return nil, err
	}
	if len(result) > 0 {
		// Re-indented one level deeper, an export indented two spaces a
		// level grows by about a tenth.
		b = slices.Grow(b[:len(b)-len(end)], len(sep)+len(result)+len(result)/4+len(end)+1)
		b = append(appendResult(append(b, sep...), result, indent), end...)
	}
	if indent {
		b = append(b, '\n')
	}
	return b, nil
}

// stringSpecial marks the bytes appendResult stops at inside a
// string: its end, an escape, and the first bytes of what encoding/json
// escapes.
var stringSpecial = [256]bool{'"': true, '\\': true, '<': true, '>': true, '&': true, 0xE2: true}

// appendResult appends src, a valid JSON value, as encoding/json
// renders a json.RawMessage field: compacted, with <, >, &, U+2028 and
// U+2029 escaped inside strings. With indent it is laid out as a field
// of a top-level object indented by two spaces a level. Runs of bytes
// that need no change are copied as slices. Invalid input yields
// unspecified bytes, never a panic.
func appendResult(dst, src []byte, indent bool) []byte {
	const hex = "0123456789abcdef"
	depth := 1      // the field's own level inside the document
	opened := false // a '{' or '[' awaits its first element
	start := 0      // first byte of the run not yet copied
	for i := 0; i < len(src); i++ {
		c := src[i]
		if c <= ' ' { // whitespace, in valid JSON
			dst = append(dst, src[start:i]...)
			for i+1 < len(src) && src[i+1] <= ' ' {
				i++
			}
			start = i + 1
			continue
		}
		if indent {
			if opened && c != '}' && c != ']' {
				opened = false
				depth++
				dst = appendNewline(append(dst, src[start:i]...), depth)
				start = i
			}
			switch c {
			case '{', '[':
				opened = true
			case '}', ']':
				dst = append(dst, src[start:i]...)
				if opened {
					opened = false
				} else {
					depth--
					dst = appendNewline(dst, depth)
				}
				start = i
			case ',':
				dst = appendNewline(append(dst, src[start:i+1]...), depth)
				start = i + 1
			case ':':
				dst = append(append(dst, src[start:i+1]...), ' ')
				start = i + 1
			}
		}
		if c != '"' {
			continue
		}
		// Scan to the closing quote, leaving i on it.
		for i++; i < len(src); i++ {
			c := src[i]
			if !stringSpecial[c] {
				continue
			}
			if c == '"' {
				break
			}
			if c == '\\' {
				i++
				continue
			}
			if c != 0xE2 {
				dst = append(dst, src[start:i]...)
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
				start = i + 1
			} else if i+2 < len(src) && src[i+1] == 0x80 && src[i+2]&^1 == 0xA8 {
				dst = append(dst, src[start:i]...)
				dst = append(dst, '\\', 'u', '2', '0', '2', hex[src[i+2]&0xF])
				i += 2
				start = i + 1
			}
		}
	}
	return append(dst, src[start:]...)
}

// appendNewline starts a new line indented to depth levels.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
