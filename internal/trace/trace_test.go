package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/workload"
)

func roundTrip(t *testing.T, instrs []cpu.Instr) []cpu.Instr {
	t.Helper()
	var buf bytes.Buffer
	n, err := Record(&buf, cpu.NewSliceTrace(instrs), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(instrs)) {
		t.Fatalf("recorded %d, want %d", n, len(instrs))
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out []cpu.Instr
	for {
		in, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, in)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return out
}

func TestRoundTripBasic(t *testing.T) {
	instrs := []cpu.Instr{
		{Kind: cpu.Compute, N: 7},
		{Kind: cpu.Load, VA: 0x1000},
		{Kind: cpu.Store, VA: 0x1040},
		{Kind: cpu.LoadOverlay, VA: 0x100},
		{Kind: cpu.Compute, N: 1},
		{Kind: cpu.Load, VA: 0xffffff000},
	}
	out := roundTrip(t, instrs)
	if len(out) != len(instrs) {
		t.Fatalf("got %d instrs", len(out))
	}
	for i := range instrs {
		want := instrs[i]
		if want.Kind == cpu.Compute && want.N < 1 {
			want.N = 1
		}
		if out[i] != want {
			t.Fatalf("instr %d: %+v != %+v", i, out[i], want)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		instrs := make([]cpu.Instr, int(count)+1)
		for i := range instrs {
			switch rng.Intn(4) {
			case 0:
				instrs[i] = cpu.Instr{Kind: cpu.Compute, N: 1 + rng.Intn(32)}
			case 1:
				instrs[i] = cpu.Instr{Kind: cpu.Load, VA: arch.VirtAddr(rng.Int63n(1 << 47))}
			case 2:
				instrs[i] = cpu.Instr{Kind: cpu.Store, VA: arch.VirtAddr(rng.Int63n(1 << 47))}
			default:
				instrs[i] = cpu.Instr{Kind: cpu.LoadOverlay, VA: arch.VirtAddr(rng.Int63n(1 << 47))}
			}
		}
		out := roundTrip(t, instrs)
		if len(out) != len(instrs) {
			return false
		}
		for i := range instrs {
			if out[i] != instrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRecordLimit(t *testing.T) {
	spec, _ := workload.ByName("hmmer")
	var buf bytes.Buffer
	n, err := Record(&buf, spec.NewTrace(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("recorded %d, want 1000", n)
	}
}

func TestWorkloadTraceRoundTrip(t *testing.T) {
	// Record a real benchmark prefix and replay it: byte-identical stream.
	spec, _ := workload.ByName("mcf")
	var buf bytes.Buffer
	if _, err := Record(&buf, spec.NewTrace(), 5000); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ref := spec.NewTrace()
	for i := 0; i < 5000; i++ {
		want, _ := ref.Next()
		got, ok := r.Next()
		if !ok {
			t.Fatalf("replay ended early at %d", i)
		}
		if got != want {
			t.Fatalf("instr %d: %+v != %+v", i, got, want)
		}
	}
}

func TestCompression(t *testing.T) {
	// Delta encoding should keep sequential address streams near 2-3
	// bytes per record.
	var instrs []cpu.Instr
	for i := 0; i < 10000; i++ {
		instrs = append(instrs, cpu.Instr{Kind: cpu.Load, VA: arch.VirtAddr(i * 64)})
	}
	var buf bytes.Buffer
	Record(&buf, cpu.NewSliceTrace(instrs), 0)
	perRecord := float64(buf.Len()) / 10000
	if perRecord > 3.2 {
		t.Fatalf("encoding too fat: %.1f bytes/record", perRecord)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestTruncatedStream(t *testing.T) {
	instrs := []cpu.Instr{{Kind: cpu.Load, VA: 0x123456}}
	var buf bytes.Buffer
	Record(&buf, cpu.NewSliceTrace(instrs), 0)
	trunc := buf.Bytes()[:buf.Len()-1]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("truncated record decoded")
	}
	if r.Err() == nil {
		t.Fatal("truncation not reported")
	}
}

// FuzzTraceReader feeds arbitrary bytes to the decoder behind `trace
// -in`. Decoding must not panic and must end, every VA it returns must
// lie below 2^48, and re-encoding the decoded records with a Writer must
// decode to the same records.
func FuzzTraceReader(f *testing.F) {
	spec, _ := workload.ByName("hmmer")
	var buf bytes.Buffer
	if _, err := Record(&buf, spec.NewTrace(), 64); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var got []cpu.Instr
		for {
			in, ok := r.Next()
			if !ok {
				break
			}
			if !in.VA.Canonical() {
				t.Fatalf("record %d: va %#x is at or above 2^%d", len(got), uint64(in.VA), arch.VirtBits)
			}
			got = append(got, in)
			// A record takes at least two bytes past the 8-byte header.
			if 2*len(got) > len(data)-8 {
				t.Fatalf("decoded %d records from %d bytes", len(got), len(data))
			}
		}
		again := roundTrip(t, got)
		if len(again) != len(got) {
			t.Fatalf("re-encoded %d records decode to %d", len(got), len(again))
		}
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("record %d: %+v re-encodes to %+v", i, got[i], again[i])
			}
		}
	})
}

func TestReaderRejectsBadRecords(t *testing.T) {
	for _, c := range []struct {
		name string
		in   cpu.Instr
		want string
	}{
		{"va past 48 bits", cpu.Instr{Kind: cpu.Load, VA: 1 << 50}, "trace: record 1: va 0x4000000000000 is at or above 2^48"},
		{"negative va", cpu.Instr{Kind: cpu.Store, VA: ^arch.VirtAddr(0)}, "trace: record 1: va 0xffffffffffffffff is at or above 2^48"},
	} {
		var buf bytes.Buffer
		if _, err := Record(&buf, cpu.NewSliceTrace([]cpu.Instr{{Kind: cpu.Load, VA: 0x1000}, c.in}), 0); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := r.Next(); !ok {
				break
			}
		}
		if r.Err() == nil || r.Err().Error() != c.want || r.Count() != 1 {
			t.Errorf("%s: err %v after %d records, want %q after 1", c.name, r.Err(), r.Count(), c.want)
		}
	}
	// A burst of zero instructions is never written (Writer records at
	// least 1), so the reader refuses one.
	r, err := NewReader(bytes.NewReader([]byte("POTRACE1\x00\x00")))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok || r.Err() == nil || r.Err().Error() != "trace: record 0: burst of 0 instructions" {
		t.Fatalf("zero burst: err %v", r.Err())
	}
}
