package server

// Discovery on durable datasets. Every discovery reads the dataset's
// one column store — the miner's own columns — whether the durable
// layer has compacted its log into a snapshot, the server rebooted from
// one, or a coordinator shards the work; the covers and fingerprints
// must match a from-scratch run over the same rows in every case.

import (
	"net/http"
	"testing"

	"repro/internal/durable"
	"repro/internal/relation"
)

// checkDiscovery asserts that resp describes want: same cover, same
// shape and the content fingerprint of exactly these rows.
func checkDiscovery(t *testing.T, what string, resp DiscoverResponse, want *relation.Relation) {
	t.Helper()
	if !sameCover(resp.FDs, fromScratchCover(t, want)) {
		t.Fatalf("%s: cover differs from reference:\n%v", what, resp.FDs)
	}
	if resp.Rows != want.Rows() || resp.Attributes != want.Arity() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, resp.Rows, resp.Attributes, want.Rows(), want.Arity())
	}
	if fp := durable.FingerprintOf(want).Sum(); resp.Fingerprint != fp {
		t.Fatalf("%s: fingerprint %s, want %s", what, resp.Fingerprint, fp)
	}
}

func TestCompactedDatasetDiscovery(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{DataDir: dir, SnapshotEvery: -1})
	base := relation.PaperExample()
	reg := register(t, ts, base)
	if code, _ := appendCSV(t, ts.URL, reg.ID, "90,6,99,Research,7\n91,7,01,Sales,8\n"); code != http.StatusOK {
		t.Fatal("append failed")
	}
	grown := appendRows(t, base, [][]string{
		{"90", "6", "99", "Research", "7"},
		{"91", "7", "01", "Sales", "8"},
	})
	// Fold the WAL into a snapshot; the snapshot now reproduces the full
	// acknowledged state by itself.
	if err := s.store.CompactAll(); err != nil {
		t.Fatal(err)
	}

	var resp DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &resp); code != http.StatusOK {
		t.Fatalf("discover status %d (%s)", code, resp.Error)
	}
	checkDiscovery(t, "compacted", resp, grown)

	// An Armstrong construction reads the original values from the same
	// columns.
	var arm DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID, Armstrong: true}, &arm); code != http.StatusOK {
		t.Fatalf("armstrong discover status %d", code)
	}
	checkDiscovery(t, "armstrong", arm, grown)
	if len(arm.Armstrong) == 0 {
		t.Fatal("armstrong discovery returned no rows")
	}

	// A WAL record past the snapshot: the next discovery sees it.
	if code, _ := appendCSV(t, ts.URL, reg.ID, "92,8,02,Ops,9\n"); code != http.StatusOK {
		t.Fatal("second append failed")
	}
	grown2 := appendRows(t, grown, [][]string{{"92", "8", "02", "Ops", "9"}})
	var after DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &after); code != http.StatusOK {
		t.Fatalf("post-append discover status %d", code)
	}
	checkDiscovery(t, "post-append", after, grown2)
}

// TestRecoveredDatasetDiscovery pins the boot path: after a clean
// shutdown (which compacts), a rebooted server discovers on the
// recovered snapshot's columns.
func TestRecoveredDatasetDiscovery(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{DataDir: dir, SnapshotEvery: -1})
	base := relation.PaperExample()
	reg := register(t, ts1, base)
	if code, _ := appendCSV(t, ts1.URL, reg.ID, "90,6,99,Research,7\n"); code != http.StatusOK {
		t.Fatal("append failed")
	}
	grown := appendRows(t, base, [][]string{{"90", "6", "99", "Research", "7"}})
	if err := s1.Shutdown(t.Context()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2, ts2 := newTestServer(t, Config{DataDir: dir, SnapshotEvery: -1})
	defer s2.Shutdown(t.Context())
	var resp DiscoverResponse
	if code := postJSON(t, ts2.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &resp); code != http.StatusOK {
		t.Fatalf("discover on recovered dataset: %d (%s)", code, resp.Error)
	}
	checkDiscovery(t, "recovered", resp, grown)
}

// TestShardedCompactedDiscovery: a coordinator whose dataset is
// compacted plans and shards from the same columns, pushing the dataset
// to its cold workers.
func TestShardedCompactedDiscovery(t *testing.T) {
	dir := t.TempDir()
	workers := newWorkerFleet(t, 2, Config{})
	s, ts := newCoordServer(t, workers, Config{DataDir: dir, SnapshotEvery: -1})
	base := relation.PaperExample()
	reg := register(t, ts, base)
	if code, _ := appendCSV(t, ts.URL, reg.ID, "90,6,99,Research,7\n"); code != http.StatusOK {
		t.Fatal("append failed")
	}
	grown := appendRows(t, base, [][]string{{"90", "6", "99", "Research", "7"}})
	if err := s.store.CompactAll(); err != nil {
		t.Fatal(err)
	}

	code, resp := discover(t, ts, DiscoverRequest{Dataset: reg.ID, Shards: 2})
	if code != http.StatusOK || resp.Partial {
		t.Fatalf("sharded discover: code=%d partial=%v (%s)", code, resp.Partial, resp.Error)
	}
	if resp.ShardsRemote != 2 {
		t.Fatalf("remote shards = %d, want 2", resp.ShardsRemote)
	}
	checkDiscovery(t, "sharded", resp, grown)
}
