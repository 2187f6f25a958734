package main

// This file turns a runtime/pprof CPU profile into per-layer self time.
// It decodes the profile's protobuf encoding directly (the format is
// small and stable), so the traced run needs nothing beyond the
// standard library.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// Layer names for samples with no frame in a repro/internal package.
const (
	layerNet     = "net"     // net/http and the net package, client or server side
	layerBench   = "bench"   // the benchmark's own code (package main)
	layerRuntime = "runtime" // GC workers, the scheduler, anything else
)

// repoPrefix is the import-path prefix of the program's layers.
const repoPrefix = "repro/internal/"

// funcPackage returns the import path of a symbol name as the Go
// runtime reports it, e.g. "repro/internal/cache" for
// "repro/internal/cache.(*Cache).Lookup". Type arguments are ignored.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf charges one sampled stack (leaf first) to a layer: the
// innermost frame in a repro/internal/<layer> package wins, so map,
// allocation, math/rand and encoding/json work counts for the layer
// that called it. Stacks with no such frame go to net when net/http or
// net is on them, to bench when the benchmark's own code is, and to
// the runtime otherwise.
func layerOf(stack []string) string {
	net, bench := false, false
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if rest, ok := strings.CutPrefix(pkg, repoPrefix); ok {
			layer, _, _ := strings.Cut(rest, "/")
			return layer
		}
		switch {
		case pkg == "net" || strings.HasPrefix(pkg, "net/"):
			net = true
		case pkg == "main":
			bench = true
		}
	}
	switch {
	case net:
		return layerNet
	case bench:
		return layerBench
	}
	return layerRuntime
}

// profileSample is one decoded stack with its CPU time.
type profileSample struct {
	stack []string // function names, leaf first
	cpu   time.Duration
}

// layerTimes sums a gzipped CPU profile's samples by layer.
func layerTimes(gz []byte) (map[string]time.Duration, error) {
	samples, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	out := make(map[string]time.Duration)
	for _, s := range samples {
		out[layerOf(s.stack)] += s.cpu
	}
	return out, nil
}

// decodeProfile reads the samples of a gzipped profile.proto message.
// Only the fields attribution needs are decoded: samples, locations
// (with inlined lines), functions, the string table and the period.
func decodeProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples  []rawSample
		strs     []string
		funcName = map[uint64]int64{}    // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		period   int64
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					for _, u := range appendPacked(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		// A CPU profile carries [count, nanoseconds]; older encodings
		// carry the count alone, scaled by the period.
		var cpu int64
		switch {
		case len(s.values) >= 2:
			cpu = s.values[1]
		case len(s.values) >= 1:
			cpu = s.values[0] * period
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, profileSample{stack: stack, cpu: time.Duration(cpu)})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and payload: v for varints and fixed-width values,
// b for length-delimited ones.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values, which the
// encoder writes either one per field (wire type 0) or packed (2).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
