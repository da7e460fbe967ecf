package tune

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// cacheVersion is the tuning-cache format version.
const cacheVersion = 1

// CacheEntry is one tuned operating point in the JSON cache.
type CacheEntry struct {
	Site        string  `json:"site"`
	N           int     `json:"n"`
	Workers     int     `json:"workers"`
	Chunk       int     `json:"chunk"`
	Converged   bool    `json:"converged"`
	ItemsPerSec float64 `json:"items_per_sec,omitempty"`
	Trials      int     `json:"trials,omitempty"`
}

// Cache is the JSON-serializable tuning state: the converged (or
// in-progress) chunk size per key, for warm-starting a later run.
type Cache struct {
	Version int          `json:"version"`
	Entries []CacheEntry `json:"entries"`
}

// Export snapshots the tuner state into a Cache, entries sorted by key.
func (t *Tuner) Export() Cache {
	keys := t.Keys()
	c := Cache{Version: cacheVersion, Entries: make([]CacheEntry, 0, len(keys))}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range keys {
		s := t.st[k]
		if s == nil || s.trials == 0 {
			continue
		}
		c.Entries = append(c.Entries, CacheEntry{
			Site:        k.Site,
			N:           k.N,
			Workers:     k.Workers,
			Chunk:       s.best,
			Converged:   s.locked,
			ItemsPerSec: s.bestTp,
			Trials:      s.trials,
		})
	}
	return c
}

// Import warm-starts the tuner from a cache: each valid entry seeds the
// key's operating point at the cached chunk, locked if it had converged.
// Entries for keys that already have live state are ignored (live
// observations outrank a stale cache). Returns the number of entries
// applied.
func (t *Tuner) Import(c Cache) (int, error) {
	if c.Version != cacheVersion {
		return 0, fmt.Errorf("tune: cache version %d, want %d", c.Version, cacheVersion)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	applied := 0
	for _, e := range c.Entries {
		if e.Site == "" || e.N <= 0 || e.Workers <= 0 || e.Chunk < 1 {
			continue
		}
		k := Key{Site: e.Site, N: e.N, Workers: e.Workers}
		if _, live := t.st[k]; live {
			continue
		}
		chunk := t.clamp(k, e.Chunk)
		s := &state{
			cur:    chunk,
			dir:    +1,
			best:   chunk,
			bestTp: e.ItemsPerSec,
			prevTp: e.ItemsPerSec,
			trials: e.Trials,
			locked: e.Converged,
			tried:  map[int]float64{chunk: e.ItemsPerSec},
			timing: make(map[int]moments),
		}
		if s.trials == 0 {
			s.trials = 1
		}
		t.st[k] = s
		applied++
	}
	return applied, nil
}

// WriteJSON writes the exported cache as indented JSON.
func (t *Tuner) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Export())
}

// ReadJSON decodes a cache from JSON.
func ReadJSON(r io.Reader) (Cache, error) {
	var c Cache
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return Cache{}, fmt.Errorf("tune: decoding cache: %w", err)
	}
	return c, nil
}

// SaveFile writes the tuning cache to path.
func (t *Tuner) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tune: writing cache: %w", err)
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile warm-starts the tuner from the cache at path. A missing file is
// not an error (cold start); a malformed one is. Returns the number of
// entries applied.
func (t *Tuner) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("tune: reading cache: %w", err)
	}
	defer f.Close()
	c, err := ReadJSON(f)
	if err != nil {
		return 0, err
	}
	return t.Import(c)
}
