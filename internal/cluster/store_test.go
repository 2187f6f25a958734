package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
)

func testKey(t *testing.T) string {
	t.Helper()
	return exp.JobSpec{Experiment: "sweep"}.Key()
}

func TestFSStoreRoundTrip(t *testing.T) {
	s, err := NewFSStore(filepath.Join(t.TempDir(), "results"))
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t)
	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatalf("Get on empty store = (%v, %v), want miss", ok, err)
	}
	want := `{"command":"sweep"}`
	if err := s.Put(key, []byte(want)); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok || string(got) != want {
		t.Fatalf("Get = (%q, %v, %v), want stored bytes", got, ok, err)
	}
	// Layout: dir/<key[:2]>/<key>.json — pinned because operators and
	// docs/CLUSTER.md rely on it.
	if _, err := os.Stat(filepath.Join(s.Dir(), key[:2], key+".json")); err != nil {
		t.Fatalf("expected disk layout missing: %v", err)
	}
	if n := countEntries(t, s.Dir()); n != 1 {
		t.Fatalf("store holds %d entries, want 1", n)
	}
	// Re-put is idempotent.
	if err := s.Put(key, []byte(want)); err != nil {
		t.Fatal(err)
	}
	if n := countEntries(t, s.Dir()); n != 1 {
		t.Fatalf("store holds %d entries after re-put, want 1", n)
	}
}

// countEntries counts the entry files under a store directory.
func countEntries(t *testing.T, dir string) int {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "??", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

func TestFSStoreSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	s1, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t)
	if err := s1.Put(key, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	s2, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.Get(key)
	if err != nil || !ok || string(got) != `{"x":1}` {
		t.Fatalf("reopened Get = (%q, %v, %v)", got, ok, err)
	}
}

func TestFSStoreRejectsBadKeys(t *testing.T) {
	s, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"", "short", strings.Repeat("g", 64), "../../../../etc/passwd",
		strings.Repeat("A", 64), // upper-case hex is not what Key emits
	} {
		if _, _, err := s.Get(key); err == nil {
			t.Errorf("Get(%q) accepted an invalid key", key)
		}
		if err := s.Put(key, []byte("{}")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", key)
		}
	}
}

func TestFSStoreCorruptEntryIsError(t *testing.T) {
	s, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t)
	if err := s.Put(key, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	// Truncate the entry behind the store's back.
	if err := os.WriteFile(filepath.Join(s.Dir(), key[:2], key+".json"),
		[]byte(`{"ok":tr`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); err == nil || ok {
		t.Fatalf("corrupt entry Get = (ok=%v, err=%v), want error", ok, err)
	}
	// Put repairs it.
	if err := s.Put(key, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Get(key); err != nil || !ok || string(got) != `{"ok":true}` {
		t.Fatalf("repaired Get = (%q, %v, %v)", got, ok, err)
	}
	// No temp litter from normal operation.
	files, _ := os.ReadDir(filepath.Join(s.Dir(), key[:2]))
	for _, f := range files {
		if strings.Contains(f.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", f.Name())
		}
	}
}

// FuzzFSStore holds the durable store to its contract on any key and
// entry: Put and Get never panic; a key validKey rejects fails both and
// creates nothing in or beside the store directory; under a valid key
// Get returns exactly the bytes put when they are JSON, and an error,
// never a hit, when they are not; no temp file is left behind.
func FuzzFSStore(f *testing.F) {
	spec := exp.JobSpec{Experiment: "sweep", Points: 2, Rows: 64}
	out, err := spec.Run(context.Background(), exp.Pool{Parallel: 1})
	if err != nil {
		f.Fatal(err)
	}
	var export bytes.Buffer
	if err := out.Export.WriteJSON(&export); err != nil {
		f.Fatal(err)
	}
	key, entry := spec.Key(), export.Bytes()
	f.Add(key, entry)
	f.Add("../"+key[3:], entry)
	f.Add(strings.ToUpper(key), entry)
	f.Add(key, entry[:len(entry)/2])
	f.Fuzz(func(t *testing.T, key string, entry []byte) {
		root := t.TempDir()
		s, err := NewFSStore(filepath.Join(root, "store"))
		if err != nil {
			t.Fatal(err)
		}
		putErr := s.Put(key, entry)
		got, hit, getErr := s.Get(key)
		var paths []string
		if err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			rel, _ := filepath.Rel(root, path)
			paths = append(paths, rel)
			if err == nil && strings.Contains(d.Name(), ".tmp-") {
				t.Errorf("temp file %s left behind", rel)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		switch {
		case !validKey(key):
			if putErr == nil || getErr == nil || hit {
				t.Fatalf("invalid key %q: put error %v, get error %v, hit %v", key, putErr, getErr, hit)
			}
			if len(paths) != 2 || paths[1] != "store" {
				t.Fatalf("invalid key %q created %v", key, paths)
			}
		case putErr != nil:
			t.Fatalf("Put(%q): %v", key, putErr)
		case json.Valid(entry):
			if getErr != nil || !hit || !bytes.Equal(got, entry) {
				t.Fatalf("Get(%q) after Put: hit %v, error %v, %d of %d bytes back", key, hit, getErr, len(got), len(entry))
			}
		case getErr == nil || hit:
			t.Fatalf("Get(%q) of a non-JSON entry: hit %v, error %v", key, hit, getErr)
		}
	})
}
