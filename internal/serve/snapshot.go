package serve

// Registry snapshots: one JSON document holding every loaded wrapper blob
// together with its generation, so a restarted shard resumes exactly where
// it left off — same wrappers, same generations, and therefore the same
// cache-key space (a warm peer cache or a persisted result store stays
// valid across the restart instead of being orphaned by a generation
// reset).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"mse/internal/core"
)

// snapshotVersion is the format version SaveSnapshot writes and
// LoadSnapshot accepts.
const snapshotVersion = 1

// snapshotFile is the wire form of a registry snapshot.
type snapshotFile struct {
	Version int              `json:"version"`
	SavedAt string           `json:"saved_at"`
	Engines []snapshotEngine `json:"engines"`
}

// snapshotEngine is one engine in a snapshot: the raw wrapper JSON exactly
// as it was Added, plus the generation it was serving under.
type snapshotEngine struct {
	Name       string          `json:"name"`
	Generation uint64          `json:"generation"`
	Wrapper    json.RawMessage `json:"wrapper"`
}

// SaveSnapshot writes the registry's current wrapper fleet — blobs and
// generations — as one JSON document, sorted by engine name so consecutive
// snapshots are diffable.
func (r *Registry) SaveSnapshot(w io.Writer) error {
	r.mu.RLock()
	snap := snapshotFile{Version: snapshotVersion, SavedAt: nowRFC3339()}
	for name, e := range r.wrappers {
		snap.Engines = append(snap.Engines, snapshotEngine{
			Name:       name,
			Generation: e.gen,
			Wrapper:    json.RawMessage(e.raw),
		})
	}
	r.mu.RUnlock()
	sort.Slice(snap.Engines, func(i, j int) bool { return snap.Engines[i].Name < snap.Engines[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("serve: writing snapshot: %w", err)
	}
	return nil
}

// SetSnapshotPath arms automatic snapshot persistence: after every wrapper
// swap (relearn-driven or operator-driven) the full fleet is rewritten to
// path, so a restart resumes with the wrappers actually serving, not the
// ones loaded at startup.  Empty path disables persistence (the default).
// Call before Handler.
func (r *Registry) SetSnapshotPath(path string) { r.snapPath = path }

// persistSnapshot writes the fleet to the armed snapshot path atomically:
// a temp file in the same directory, fsynced, renamed over the target, and
// the directory fsynced so the rename itself survives a crash.  A crash
// mid-write can never leave a torn snapshot for the next start to choke
// on.  Concurrent swaps serialize on snapMu, and each reads the fleet only
// once it holds the lock, so the last snapshot written is never older than
// the last swap.  A no-op without an armed path.
func (r *Registry) persistSnapshot() error {
	if r.snapPath == "" {
		return nil
	}
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	dir := filepath.Dir(r.snapPath)
	tmp, err := os.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("serve: snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := r.SaveSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), r.snapPath); err != nil {
		return fmt.Errorf("serve: installing snapshot: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("serve: syncing snapshot directory: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("serve: syncing snapshot directory: %w", err)
	}
	return nil
}

// LoadSnapshot restores engines from a snapshot written by SaveSnapshot,
// preserving each engine's generation.  When the registry is sharded,
// engines owned by other shards are skipped — one fleet-wide snapshot can
// feed every shard.  Loading is all-or-nothing: every owned entry is
// decoded and compiled before any is installed, so a malformed entry
// leaves the registry unchanged; the error names the entry's index in the
// snapshot.  Returns the number of engines loaded.
func (r *Registry) LoadSnapshot(rd io.Reader) (int, error) {
	var snap snapshotFile
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&snap); err != nil {
		return 0, fmt.Errorf("serve: reading snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return 0, fmt.Errorf("serve: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	type decoded struct {
		e  snapshotEngine
		ew *core.EngineWrapper
	}
	var load []decoded
	for i, e := range snap.Engines {
		if e.Name == "" {
			return 0, fmt.Errorf("serve: snapshot engine %d has no name", i)
		}
		if !r.Owns(e.Name) {
			continue
		}
		ew, err := r.decode(e.Name, e.Wrapper)
		if err != nil {
			return 0, fmt.Errorf("serve: snapshot engine %d: %w", i, err)
		}
		load = append(load, decoded{e, ew})
	}
	for _, d := range load {
		gen := d.e.Generation
		if gen == 0 {
			gen = 1
		}
		r.install(d.e.Name, d.ew, d.e.Wrapper, gen)
	}
	return len(load), nil
}
