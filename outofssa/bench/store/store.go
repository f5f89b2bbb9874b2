// Package store is the persistent result store of the bench subsystem: an
// append-only, file-backed log of report envelopes keyed by content hash,
// plus named snapshots. It is deliberately pure Go — a directory with an
// NDJSON run log and a snapshot index — so the store is greppable,
// diffable, and committable without any external dependency.
//
// Layout (under the store directory, default .ssabench):
//
//	runs.ndjson     append-only, one JSON entry per line:
//	                {"id": ..., "trajectory": ..., "commit": ..., "report": {...}}
//	snapshots.json  {"name": "run id", ...}, rewritten atomically
//
// Append is a single O_APPEND write under a process-level lock, so
// concurrent appends from one process interleave whole lines; a torn or
// otherwise corrupt line is skipped (and counted) on load rather than
// poisoning the store. Entries are keyed (commit, trajectory, content
// hash): the id is derived from the report's canonical JSON, so appending
// the same measurement twice is detectable and resolvable by prefix.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/faults"
	"repro/outofssa/bench"
)

// fpAppend fires at Append entry, so chaos runs can verify callers survive
// a failing result store.
var fpAppend = faults.Register("bench.store.append")

// DefaultDir is the conventional store location at the repository root.
const DefaultDir = ".ssabench"

const (
	runsFile      = "runs.ndjson"
	snapshotsFile = "snapshots.json"
)

// Entry is one stored run: the envelope plus its store key.
type Entry struct {
	// ID is the content hash of the report's canonical JSON (16 hex
	// digits) — stable across re-appends of the same measurement.
	ID string `json:"id"`
	// Trajectory and Commit are denormalized from the report for listing
	// and resolution without decoding every envelope.
	Trajectory string        `json:"trajectory"`
	Commit     string        `json:"commit,omitempty"`
	Timestamp  string        `json:"timestamp,omitempty"`
	Report     *bench.Report `json:"report"`
}

// Store is a handle on one store directory. A Store is safe for
// concurrent use; cross-process appends are safe up to POSIX O_APPEND
// atomicity (whole-line writes).
type Store struct {
	dir string
	mu  sync.Mutex
}

// Open opens (creating if needed) the store directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		dir = DefaultDir
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// ID computes the store key of a report: the first 16 hex digits of the
// SHA-256 of its canonical (compact) JSON.
func ID(rep *bench.Report) (string, error) {
	raw, err := json.Marshal(rep)
	if err != nil {
		return "", fmt.Errorf("store: encoding report: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8]), nil
}

// Append adds one envelope to the run log and returns its id. Appending a
// report whose id is already present is a no-op (idempotent re-append).
func (s *Store) Append(rep *bench.Report) (string, error) {
	if err := fpAppend.Inject(); err != nil {
		return "", err
	}
	if rep == nil || rep.Trajectory == "" {
		return "", fmt.Errorf("store: refusing to append a report with no trajectory")
	}
	id, err := ID(rep)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, _, err := s.load()
	if err != nil {
		return "", err
	}
	for i := range entries {
		if entries[i].ID == id {
			return id, nil
		}
	}
	line, err := json.Marshal(Entry{
		ID:         id,
		Trajectory: rep.Trajectory,
		Commit:     rep.Env.Commit,
		Timestamp:  rep.Env.Timestamp,
		Report:     rep,
	})
	if err != nil {
		return "", fmt.Errorf("store: encoding entry: %w", err)
	}
	path := filepath.Join(s.dir, runsFile)
	// A writer that died mid-line leaves a torn, newline-less tail; writing
	// straight after it would weld this entry onto the corrupt line. Seal
	// the torn line first so the new entry stays recoverable.
	if tail, err := lastByte(path); err != nil {
		return "", err
	} else if tail != 0 && tail != '\n' {
		line = append([]byte{'\n'}, line...)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	_, werr := f.Write(append(line, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", fmt.Errorf("store: appending run: %w", werr)
	}
	return id, nil
}

// lastByte returns the final byte of the file (0 for a missing or empty
// file).
func lastByte(path string) (byte, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return 0, err
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], st.Size()-1); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return b[0], nil
}

// List returns every stored run in append order, plus the number of
// corrupt lines that were skipped (a torn concurrent write or a truncated
// tail must not poison the whole store).
func (s *Store) List() ([]Entry, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.load()
}

// load reads the run log; the caller holds s.mu.
func (s *Store) load() ([]Entry, int, error) {
	f, err := os.Open(filepath.Join(s.dir, runsFile))
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var (
		entries []Entry
		skipped int
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<28)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.ID == "" || e.Report == nil {
			skipped++
			continue
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return entries, skipped, fmt.Errorf("store: reading run log: %w", err)
	}
	return entries, skipped, nil
}

// Snapshots returns the snapshot name → run id map.
func (s *Store) Snapshots() (map[string]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadSnapshots()
}

func (s *Store) loadSnapshots() (map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, snapshotsFile))
	if os.IsNotExist(err) {
		return map[string]string{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	snaps := map[string]string{}
	if err := json.Unmarshal(raw, &snaps); err != nil {
		return nil, fmt.Errorf("store: parsing %s: %w", snapshotsFile, err)
	}
	return snaps, nil
}

// Snapshot names a stored run. ref resolves like Resolve (id prefix,
// "latest", "latest:<trajectory>", or an existing snapshot name); the
// index is rewritten atomically (write + rename).
func (s *Store) Snapshot(name, ref string) error {
	if name == "" || strings.ContainsAny(name, " \t\n") {
		return fmt.Errorf("store: invalid snapshot name %q", name)
	}
	e, err := s.Resolve(ref)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snaps, err := s.loadSnapshots()
	if err != nil {
		return err
	}
	snaps[name] = e.ID
	raw, err := json.MarshalIndent(snaps, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding snapshots: %w", err)
	}
	tmp := filepath.Join(s.dir, snapshotsFile+".tmp")
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotsFile)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Resolve maps a reference to a stored run. Accepted forms:
//
//	latest                  the most recently appended run
//	latest:<trajectory>     the most recent run of one trajectory
//	<snapshot name>         a name registered with Snapshot
//	<id or id prefix>       the run's content hash (unique prefix allowed)
func (s *Store) Resolve(ref string) (Entry, error) {
	if ref == "" {
		ref = "latest"
	}
	entries, _, err := s.List()
	if err != nil {
		return Entry{}, err
	}
	if ref == "latest" || strings.HasPrefix(ref, "latest:") {
		traj := strings.TrimPrefix(ref, "latest:")
		if traj == "latest" {
			traj = ""
		}
		for i := len(entries) - 1; i >= 0; i-- {
			if traj == "" || entries[i].Trajectory == traj {
				return entries[i], nil
			}
		}
		return Entry{}, fmt.Errorf("store: no stored run matches %q", ref)
	}
	snaps, err := s.Snapshots()
	if err != nil {
		return Entry{}, err
	}
	target := ref
	if id, ok := snaps[ref]; ok {
		target = id
	}
	var matches []Entry
	for _, e := range entries {
		if e.ID == target {
			return e, nil
		}
		if strings.HasPrefix(e.ID, target) {
			matches = append(matches, e)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return Entry{}, fmt.Errorf("store: no stored run matches %q", ref)
	default:
		ids := make([]string, len(matches))
		for i := range matches {
			ids[i] = matches[i].ID
		}
		sort.Strings(ids)
		return Entry{}, fmt.Errorf("store: ambiguous reference %q matches %s", ref, strings.Join(ids, ", "))
	}
}

// Export writes the resolved run's envelope as indented JSON, re-readable
// by bench.ReadReport and by `ssabench compare`.
func (s *Store) Export(w io.Writer, ref string) error {
	e, err := s.Resolve(ref)
	if err != nil {
		return err
	}
	return e.Report.WriteJSON(w)
}
