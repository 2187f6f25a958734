package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// FSStore is a filesystem server.ResultStore: rendered job exports,
// content-addressed by canonical spec digest, laid out as
//
//	dir/<key[:2]>/<key>.json
//
// (the two-hex-digit fan-out keeps any one directory small). Writes
// go through a same-directory temp file and rename, so a reader sees
// the old entry or the new one, never a torn write, and a crashed
// writer leaves only a *.tmp-* file behind. Because entries are keyed
// by the digest of what produced them and the simulator is
// deterministic, re-putting a key rewrites identical bytes — the
// store needs no locking between the processes sharing it.
type FSStore struct {
	dir string
}

// NewFSStore opens (creating if needed) a store rooted at dir.
func NewFSStore(dir string) (*FSStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("result store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("result store: %w", err)
	}
	return &FSStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *FSStore) Dir() string { return s.dir }

// validKey accepts exactly the 64-hex-digit digests exp.JobSpec.Key
// produces. Everything else is rejected before touching the
// filesystem — the key is about to become a path component.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *FSStore) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// Get reads the entry for key. A missing entry is (nil, false, nil);
// an entry that is not valid JSON is an error — the server treats it
// as a miss and the next completed run repairs it via Put.
func (s *FSStore) Get(key string) ([]byte, bool, error) {
	if !validKey(key) {
		return nil, false, fmt.Errorf("result store: invalid key %q", key)
	}
	b, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("result store: %w", err)
	}
	if !json.Valid(b) {
		return nil, false, fmt.Errorf("result store: corrupt entry for %s (%d bytes)", key, len(b))
	}
	return b, true, nil
}

// Put writes the entry for key atomically: temp file in the entry's
// own directory, fsync-free rename over the final name.
func (s *FSStore) Put(key string, result []byte) error {
	if !validKey(key) {
		return fmt.Errorf("result store: invalid key %q", key)
	}
	dst := s.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("result store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), key+".tmp-*")
	if err != nil {
		return fmt.Errorf("result store: %w", err)
	}
	if _, err := tmp.Write(result); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("result store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("result store: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("result store: %w", err)
	}
	return nil
}
