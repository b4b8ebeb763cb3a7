package server

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/relation"
)

// durableConfig returns a Config serving from dir with fsync on and a
// small snapshot threshold, so tests exercise compaction too.
func durableConfig(dir string) Config {
	return Config{DataDir: dir, SnapshotEvery: 8}
}

// appendCSV posts headerless CSV rows and returns status + response.
func appendCSV(t *testing.T, url, id, body string) (int, AppendResponse) {
	t.Helper()
	var resp AppendResponse
	code := postCSV(t, url+"/v1/datasets/"+id+"/rows", body, &resp)
	return code, resp
}

func TestDurableRegisterAppendRecoverDiscover(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, durableConfig(dir))
	base := relation.PaperExample()
	reg := register(t, ts1, base)

	code, app := appendCSV(t, ts1.URL, reg.ID, "90,6,99,Research,7\n91,6,99,Research,7\n")
	if code != http.StatusOK || app.Appended != 2 {
		t.Fatalf("append status=%d appended=%d", code, app.Appended)
	}
	// The relation the server now holds, rebuilt locally for reference.
	grown := appendRows(t, base, [][]string{
		{"90", "6", "99", "Research", "7"},
		{"91", "6", "99", "Research", "7"},
	})
	wantCover := fromScratchCover(t, grown)
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Boot a second server over the same data dir: the dataset must come
	// back under its original id with the post-append fingerprint, and
	// discovery on the recovered state must equal a from-scratch run.
	s2, ts2 := newTestServer(t, durableConfig(dir))
	defer s2.Shutdown(context.Background())
	var info DatasetInfo
	if code := getJSON(t, ts2.URL+"/v1/datasets/"+reg.ID, &info); code != http.StatusOK {
		t.Fatalf("recovered dataset GET status = %d", code)
	}
	if info.Fingerprint != app.Fingerprint {
		t.Fatalf("recovered fp %s, want post-append %s", info.Fingerprint, app.Fingerprint)
	}
	if info.Rows != base.Rows()+2 {
		t.Fatalf("recovered rows = %d, want %d", info.Rows, base.Rows()+2)
	}
	var disc DiscoverResponse
	if code := postJSON(t, ts2.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &disc); code != http.StatusOK {
		t.Fatalf("discover on recovered dataset: status %d", code)
	}
	if !sameCover(disc.FDs, wantCover) {
		t.Fatalf("recovered cover %v, want %v", disc.FDs, wantCover)
	}
	// Recovered datasets keep accepting durable appends.
	if code, app2 := appendCSV(t, ts2.URL, reg.ID, "92,7,01,Sales,8\n"); code != http.StatusOK || app2.Appended != 1 {
		t.Fatalf("append on recovered dataset: status=%d appended=%d", code, app2.Appended)
	}
}

// appendRows builds a new relation with extra rows, mirroring what the
// server's incremental session holds after an append.
func appendRows(t *testing.T, r *relation.Relation, extra [][]string) *relation.Relation {
	t.Helper()
	rows := make([][]string, 0, r.Rows()+len(extra))
	for i := 0; i < r.Rows(); i++ {
		rows = append(rows, r.Row(i))
	}
	rows = append(rows, extra...)
	out, err := relation.FromRows(r.Names(), rows)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDurableRecoveryWithoutCleanShutdown(t *testing.T) {
	// Abandon the first server without Shutdown — the in-process stand-in
	// for a crash. Every acknowledged write was fsync'd, so the second
	// boot must recover all of it.
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, durableConfig(dir))
	r, err := datagen.Generate(datagen.Spec{Attrs: 5, Rows: 60, Correlation: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reg := register(t, ts1, r)
	var lastFP string
	for i := 0; i < 20; i++ { // crosses the SnapshotEvery=8 threshold
		code, app := appendCSV(t, ts1.URL, reg.ID, "x,y,z,w,q\n")
		if code != http.StatusOK {
			t.Fatalf("append %d: status %d", i, code)
		}
		lastFP = app.Fingerprint
	}
	// Release the WAL handles without draining or compacting, as a crash
	// would; the registry and HTTP side simply stop being used.
	if err := s1.store.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, durableConfig(dir))
	defer s2.Shutdown(context.Background())
	var info DatasetInfo
	if code := getJSON(t, ts2.URL+"/v1/datasets/"+reg.ID, &info); code != http.StatusOK {
		t.Fatalf("recovered dataset GET status = %d", code)
	}
	if info.Fingerprint != lastFP || info.Rows != r.Rows()+20 {
		t.Fatalf("recovered rows=%d fp=%s, want rows=%d fp=%s", info.Rows, info.Fingerprint, r.Rows()+20, lastFP)
	}
	var st StatsResponse
	if code := getJSON(t, ts2.URL+"/v1/stats", &st); code != http.StatusOK || st.Durable == nil {
		t.Fatalf("stats: code=%d durable=%v", code, st.Durable)
	}
	if st.Durable.Recovered != 1 || st.Durable.Quarantined != 0 {
		t.Fatalf("durable stats %+v", st.Durable)
	}
}

func TestQuarantineServesHealthyDatasets(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{DataDir: dir, SnapshotEvery: -1})
	healthy := register(t, ts1, relation.PaperExample())
	r2, err := datagen.Generate(datagen.Spec{Attrs: 4, Rows: 30, Correlation: 0.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	victim := register(t, ts1, r2)
	if code, _ := appendCSV(t, ts1.URL, victim.ID, "a,b,c,d\ne,f,g,h\n"); code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	// Stop crash-style (no drain): a clean Shutdown would fold the WALs
	// into snapshots, and this test wants to damage a live WAL.
	if err := s1.store.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the victim's registration record — mid-log damage, since an
	// append record follows it.
	walPath := filepath.Join(dir, "datasets", victim.ID, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{DataDir: dir})
	defer s2.Shutdown(context.Background())
	if code := getJSON(t, ts2.URL+"/v1/datasets/"+victim.ID, nil); code != http.StatusNotFound {
		t.Fatalf("quarantined dataset still served: status %d", code)
	}
	var disc DiscoverResponse
	if code := postJSON(t, ts2.URL+"/v1/discover", DiscoverRequest{Dataset: healthy.ID}, &disc); code != http.StatusOK {
		t.Fatalf("healthy dataset discovery after quarantine: status %d", code)
	}
	if !sameCover(disc.FDs, fromScratchCover(t, relation.PaperExample())) {
		t.Fatal("healthy dataset cover drifted after neighbour quarantine")
	}
	var st StatsResponse
	if code := getJSON(t, ts2.URL+"/v1/stats", &st); code != http.StatusOK || st.Durable == nil {
		t.Fatalf("stats: %d", code)
	}
	if st.Durable.Quarantined != 1 || len(st.Durable.QuarantinedSets) != 1 {
		t.Fatalf("durable stats %+v", st.Durable)
	}
	q := st.Durable.QuarantinedSets[0]
	if q.ID != victim.ID || q.Reason == "" {
		t.Fatalf("quarantine entry %+v", q)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", victim.ID, "REASON.json")); err != nil {
		t.Fatalf("REASON.json: %v", err)
	}
	// Quarantine is not degradation: the server stays ready…
	if code, _ := getReadyz(t, ts2.URL); code != http.StatusOK {
		t.Fatalf("readyz after quarantine boot: status %d, want 200", code)
	}
	// …and still accepts new registrations and appends.
	fresh := register(t, ts2, r2)
	if code, _ := appendCSV(t, ts2.URL, fresh.ID, "p,q,r,s\n"); code != http.StatusOK {
		t.Fatalf("append after quarantine boot: %d", code)
	}
}

func TestAppendDurabilityFaultReturns503AndReadOnly(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, ts := newTestServer(t, durableConfig(dir))
	defer s.Shutdown(context.Background())
	reg := register(t, ts, relation.PaperExample())
	if code, _ := appendCSV(t, ts.URL, reg.ID, "90,6,99,Research,7\n"); code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}

	boom := errors.New("disk on fire")
	faultinject.Set(faultinject.DurableWrite, faultinject.FailWith(boom))
	code, resp := appendCSV(t, ts.URL, reg.ID, "91,6,99,Research,7\n")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("append under write fault: status %d, want 503", code)
	}
	if !strings.Contains(resp.Error, "durability failure") {
		t.Fatalf("append error %q", resp.Error)
	}
	faultinject.Reset()

	// Sticky: the dataset is read-only even after the fault clears…
	if code, _ := appendCSV(t, ts.URL, reg.ID, "92,6,99,Research,7\n"); code != http.StatusServiceUnavailable {
		t.Fatalf("append on broken dataset: status %d, want 503", code)
	}
	// …but reads and discovery still serve.
	var disc DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &disc); code != http.StatusOK {
		t.Fatalf("discover on broken dataset: status %d", code)
	}
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK || st.Durable == nil || st.Durable.Broken != 1 {
		t.Fatalf("stats broken count: %+v", st.Durable)
	}
	// A sticky-broken dataset takes the server out of rotation.
	if code, retry := getReadyz(t, ts.URL); code != http.StatusServiceUnavailable || retry == "" {
		t.Fatalf("readyz with a broken dataset: status %d Retry-After %q, want 503 with a hint", code, retry)
	}
}

// getReadyz probes GET /readyz, returning the status and Retry-After.
func getReadyz(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// TestBrokenHandleRefusesAppendBeforeCommit breaks a dataset's durable
// handle without the server seeing it, as a failed WAL truncate after a
// background compaction does. The next append must be refused with 503
// before any row is committed to memory.
func TestBrokenHandleRefusesAppendBeforeCommit(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, durableConfig(t.TempDir()))
	defer s.Shutdown(context.Background())
	reg := register(t, ts, relation.PaperExample())
	d, ok := s.reg.get(reg.ID)
	if !ok {
		t.Fatal("registered dataset missing")
	}
	faultinject.Set(faultinject.DurableWrite, faultinject.FailWith(errors.New("disk on fire")))
	if _, err := d.dur.Append([][]string{{"90", "6", "99", "Research", "7"}}, reg.Rows+1, reg.Fingerprint); err == nil {
		t.Fatal("durable append under a write fault succeeded")
	}
	faultinject.Reset()

	code, resp := appendCSV(t, ts.URL, reg.ID, "91,6,99,Research,7\n")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("append on a broken handle: status %d, want 503", code)
	}
	if resp.Appended != 0 || resp.Rows != reg.Rows || resp.Fingerprint != reg.Fingerprint {
		t.Fatalf("append on a broken handle committed rows: %+v, registered with %d rows", resp, reg.Rows)
	}
	var info DatasetInfo
	if code := getJSON(t, ts.URL+"/v1/datasets/"+reg.ID, &info); code != http.StatusOK || info.Rows != reg.Rows {
		t.Fatalf("dataset after refused append: status %d rows %d, want %d", code, info.Rows, reg.Rows)
	}
}

func TestRegisterDurabilityFaultReturns503(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, ts := newTestServer(t, durableConfig(dir))
	defer s.Shutdown(context.Background())
	faultinject.Set(faultinject.DurableWrite, faultinject.FailWith(errors.New("no disk")))
	if code := postCSV(t, ts.URL+"/v1/datasets", relationCSV(t, relation.PaperExample()), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("register under write fault: status %d, want 503", code)
	}
	faultinject.Reset()
	// The failed registration left nothing behind; the same content
	// registers cleanly afterwards.
	reg := register(t, ts, relation.PaperExample())
	if reg.ID == "" {
		t.Fatal("empty id after retry")
	}
}

func TestDrain503CarriesRetryAfterAndJSONBody(t *testing.T) {
	s, ts := newTestServer(t, Config{RetryAfter: 3 * time.Second})
	register(t, ts, relation.PaperExample())
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets", "text/csv", strings.NewReader("a,b\n1,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	decode(t, resp.Body, &body)
	if !strings.Contains(body.Error, "draining") {
		t.Fatalf("drain body %q does not name the condition", body.Error)
	}
}

func TestMemoryOnlyServerUnchanged(t *testing.T) {
	// Without -data-dir nothing durable exists: no data written, no
	// Durable stats section, appends ack without any store.
	s, ts := newTestServer(t, Config{})
	defer s.Shutdown(context.Background())
	reg := register(t, ts, relation.PaperExample())
	if code, _ := appendCSV(t, ts.URL, reg.ID, "90,6,99,Research,7\n"); code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Durable != nil {
		t.Fatalf("memory-only server reported durable stats: %+v", st.Durable)
	}
}

func TestDurableStatsCounters(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{DataDir: dir, SnapshotEvery: 4})
	reg := register(t, ts, relation.PaperExample())
	for i := 0; i < 10; i++ {
		if code, _ := appendCSV(t, ts.URL, reg.ID, "90,6,99,Research,7\n"); code != http.StatusOK {
			t.Fatalf("append %d failed", i)
		}
	}
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK || st.Durable == nil {
		t.Fatalf("stats: %d", code)
	}
	if st.Durable.AppendRecords != 10 || st.Durable.Datasets != 1 {
		t.Fatalf("durable stats %+v", st.Durable)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Shutdown's final fold leaves no WAL tail for the next boot.
	s2, _ := newTestServer(t, Config{DataDir: dir})
	defer s2.Shutdown(context.Background())
	if rec := s2.recovery; len(rec.Datasets) != 1 || rec.Datasets[0].Replayed != 0 {
		t.Fatalf("post-drain boot replayed %+v", rec.Datasets)
	}
}
