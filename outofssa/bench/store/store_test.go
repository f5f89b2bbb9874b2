package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/outofssa/bench"
)

func report(trajectory string, seed float64) *bench.Report {
	rep := bench.NewReport(trajectory)
	rep.Count = 3
	for i := 0; i < 3; i++ {
		rep.Sample("batch-large", "untraced", "funcs_per_s", 100+seed+float64(i))
		rep.Sample("batch-large", "untraced", "peak_rss_mb", 50+seed)
	}
	return rep
}

// TestStoreRoundTrip: append → list → snapshot → resolve → export, and the
// export re-reads as the very report that went in.
func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	repA, repB := report("translate", 0), report("liveness", 7)
	idA, err := s.Append(repA)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := s.Append(repB)
	if err != nil {
		t.Fatal(err)
	}
	if idA == idB {
		t.Fatalf("distinct reports share id %s", idA)
	}

	// Idempotent re-append: same content, same id, no duplicate entry.
	again, err := s.Append(repA)
	if err != nil || again != idA {
		t.Fatalf("re-append: id %s err %v, want %s", again, err, idA)
	}
	entries, skipped, err := s.List()
	if err != nil || skipped != 0 {
		t.Fatalf("list: skipped %d err %v", skipped, err)
	}
	if len(entries) != 2 || entries[0].ID != idA || entries[1].ID != idB {
		t.Fatalf("unexpected entries: %+v", entries)
	}
	if entries[0].Trajectory != "translate" || entries[1].Trajectory != "liveness" {
		t.Fatalf("denormalized trajectories wrong: %+v", entries)
	}

	// Resolution forms: latest, latest:traj, id prefix, snapshot name.
	if e, err := s.Resolve("latest"); err != nil || e.ID != idB {
		t.Fatalf("latest → %v %v, want %s", e.ID, err, idB)
	}
	if e, err := s.Resolve("latest:translate"); err != nil || e.ID != idA {
		t.Fatalf("latest:translate → %v %v, want %s", e.ID, err, idA)
	}
	if e, err := s.Resolve(idA[:6]); err != nil || e.ID != idA {
		t.Fatalf("prefix → %v %v, want %s", e.ID, err, idA)
	}
	if err := s.Snapshot("v1-baseline", idA); err != nil {
		t.Fatal(err)
	}
	if e, err := s.Resolve("v1-baseline"); err != nil || e.ID != idA {
		t.Fatalf("snapshot → %v %v, want %s", e.ID, err, idA)
	}
	if _, err := s.Resolve("nosuch"); err == nil {
		t.Fatal("resolving a bogus ref must fail")
	}

	// Export is the committed-BENCH format: a plain envelope.
	var buf bytes.Buffer
	if err := s.Export(&buf, "v1-baseline"); err != nil {
		t.Fatal(err)
	}
	back, err := bench.ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Trajectory != "translate" || len(back.Rows) != len(repA.Rows) {
		t.Fatalf("export round-trip lost data: %+v", back)
	}
	exported, err := ID(back)
	if err != nil || exported != idA {
		t.Fatalf("exported report re-hashes to %s (err %v), want %s", exported, err, idA)
	}
}

// TestStoreCorruptLines: a torn tail (truncated concurrent write) and a
// garbage line in the middle are skipped and counted; the intact entries
// stay readable.
func TestStoreCorruptLines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	idA, err := s.Append(report("translate", 0))
	if err != nil {
		t.Fatal(err)
	}

	log := filepath.Join(dir, "runs.ndjson")
	f, err := os.OpenFile(log, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Garbage mid-line, then a valid entry, then a torn tail.
	if _, err := f.WriteString("{not json at all\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	idB, err := s.Append(report("liveness", 3))
	if err != nil {
		t.Fatal(err)
	}
	f, err = os.OpenFile(log, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id": "deadbeef", "report": {"schema`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	entries, skipped, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Fatalf("want 2 skipped corrupt lines, got %d", skipped)
	}
	if len(entries) != 2 || entries[0].ID != idA || entries[1].ID != idB {
		t.Fatalf("intact entries lost: %+v", entries)
	}
	// Appends keep working after corruption, and the new entry resolves.
	idC, err := s.Append(report("scale", 9))
	if err != nil {
		t.Fatal(err)
	}
	if e, err := s.Resolve("latest"); err != nil || e.ID != idC {
		t.Fatalf("latest after corruption → %v %v, want %s", e.ID, err, idC)
	}
}

// TestStoreConcurrentAppend: parallel appends through two handles on the
// same directory interleave whole lines — every run is recoverable and
// nothing is skipped.
func TestStoreConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const perHandle = 8
	var wg sync.WaitGroup
	for g, s := range []*Store{s1, s2} {
		wg.Add(1)
		go func(g int, s *Store) {
			defer wg.Done()
			for i := 0; i < perHandle; i++ {
				rep := report(fmt.Sprintf("traj-%d", g), float64(i))
				if _, err := s.Append(rep); err != nil {
					t.Errorf("append g=%d i=%d: %v", g, i, err)
				}
			}
		}(g, s)
	}
	wg.Wait()
	entries, skipped, err := s1.List()
	if err != nil || skipped != 0 {
		t.Fatalf("list: skipped %d err %v", skipped, err)
	}
	if len(entries) != 2*perHandle {
		t.Fatalf("want %d entries, got %d", 2*perHandle, len(entries))
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Report == nil || e.Report.Schema != bench.SchemaVersion {
			t.Fatalf("malformed stored report: %+v", e)
		}
	}
}
