package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/wire"
)

// syncBuffer is a goroutine-safe log sink for asserting on log output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// scrapeMetrics fetches /metrics and parses the exposition, failing the
// test on anything that is not valid Prometheus text format.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	series, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("metrics exposition does not parse: %v", err)
	}
	return obs.SeriesMap(series)
}

// statsMetric maps every numeric /v1/stats field, by JSON path, to the
// /metrics family that renders it. It is written out here, not read from
// the server's family table, so a drift on either side is caught. Fields
// in milliseconds render in seconds; the phase map renders as one series
// per phase label.
var statsMetric = map[string]string{
	"uptime_ms": "depminerd_uptime_seconds",
	"draining":  "depminerd_draining",
	"datasets":  "depminerd_datasets",

	"jobs.cap":          "depminerd_jobs_cap",
	"jobs.running":      "depminerd_jobs_running",
	"jobs.peak_running": "depminerd_jobs_peak_running",
	"jobs.admitted":     "depminerd_jobs_admitted_total",
	"jobs.rejected":     "depminerd_jobs_rejected_total",
	"jobs.retained":     "depminerd_jobs_retained",

	"cache.entries":       "depminerd_cache_entries",
	"cache.hits":          "depminerd_cache_hits_total",
	"cache.misses":        "depminerd_cache_misses_total",
	"cache.evictions":     "depminerd_cache_evictions_total",
	"cache.invalidations": "depminerd_cache_invalidations_total",

	"discoveries.total":          "depminerd_discoveries_total",
	"discoveries.partial":        "depminerd_discoveries_partial_total",
	"discoveries.failed":         "depminerd_discoveries_failed_total",
	"discoveries.sync":           "depminerd_discoveries_sync_total",
	"discoveries.async":          "depminerd_discoveries_async_total",
	"discoveries.phase_total_ms": "depminerd_phase_seconds_total",

	"pstore.hits":       "depminerd_pstore_hits_total",
	"pstore.misses":     "depminerd_pstore_misses_total",
	"pstore.evictions":  "depminerd_pstore_evictions_total",
	"pstore.recomputes": "depminerd_pstore_recomputes_total",
	"pstore.peak_bytes": "depminerd_pstore_peak_bytes",

	"spill.runs_spilled":  "depminerd_spill_runs_total",
	"spill.spilled_sets":  "depminerd_spill_sets_total",
	"spill.spilled_bytes": "depminerd_spill_bytes_total",
	"spill.merged_runs":   "depminerd_spill_merged_runs_total",
	"spill.read_blocks":   "depminerd_spill_read_blocks_total",

	"durable.datasets":         "depminerd_durable_datasets",
	"durable.append_records":   "depminerd_durable_append_records_total",
	"durable.syncs":            "depminerd_durable_syncs_total",
	"durable.batched_records":  "depminerd_durable_batched_records_total",
	"durable.snapshots":        "depminerd_durable_snapshots_total",
	"durable.compact_errors":   "depminerd_durable_compact_errors_total",
	"durable.wal_bytes":        "depminerd_durable_wal_bytes",
	"durable.recovered":        "depminerd_durable_recovered",
	"durable.replayed_records": "depminerd_durable_replayed_records_total",
	"durable.truncated_tails":  "depminerd_durable_truncated_tails_total",
	"durable.quarantined":      "depminerd_durable_quarantined",
	"durable.broken":           "depminerd_durable_broken",

	"shard.dispatched":        "depminerd_shard_dispatched_total",
	"shard.remote":            "depminerd_shard_remote_total",
	"shard.local_fallbacks":   "depminerd_shard_local_fallbacks_total",
	"shard.datasets_pushed":   "depminerd_shard_datasets_pushed_total",
	"shard.received_sets":     "depminerd_shard_received_sets_total",
	"shard.received_bytes":    "depminerd_shard_received_bytes_total",
	"shard.dispatch_total_ms": "depminerd_shard_dispatch_seconds_total",
	"shard.stream_total_ms":   "depminerd_shard_stream_seconds_total",
	"shard.merge_total_ms":    "depminerd_shard_merge_seconds_total",
	"shard.served":            "depminerd_shard_served_total",
	"shard.served_sets":       "depminerd_shard_served_sets_total",
	"shard.served_errors":     "depminerd_shard_served_errors_total",
}

// statsLeaves calls fn for every numeric leaf of a stats value (a bool
// counts as 0 or 1), keyed by its JSON path; a map yields one call per
// key. Nil sections, strings and slices yield nothing.
func statsLeaves(v reflect.Value, path string, fn func(path, key string, val float64)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			statsLeaves(v.Elem(), path, fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			if path != "" {
				name = path + "." + name
			}
			statsLeaves(v.Field(i), name, fn)
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			fn(path, k.String(), v.MapIndex(k).Float())
		}
	case reflect.Bool:
		val := 0.0
		if v.Bool() {
			val = 1
		}
		fn(path, "", val)
	case reflect.Int, reflect.Int64:
		fn(path, "", float64(v.Int()))
	case reflect.Float64:
		fn(path, "", v.Float())
	}
}

// statsTraffic boots a durable coordinator with one in-process shard
// worker and drives every /v1/stats section: the worker registers a
// dataset and runs a local depminer discovery; the coordinator
// registers and appends (durable), runs a sharded depminer discovery
// under a one-byte agree cap, which pushes the grown dataset to the
// worker and has it serve a shard, repeats it (cache hit), and runs
// tane (partition store).
func statsTraffic(t *testing.T) (coord, worker *httptest.Server) {
	t.Helper()
	_, worker = newTestServer(t, Config{})
	wreg := register(t, worker, relation.PaperExample())
	if code, _ := discover(t, worker, DiscoverRequest{Dataset: wreg.ID}); code != http.StatusOK {
		t.Fatalf("worker local discover: status %d", code)
	}

	s, coord := newCoordServer(t, []string{worker.URL}, Config{DataDir: t.TempDir(), DisableFsync: true})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	reg := register(t, coord, relation.PaperExample())
	if code, _ := appendCSV(t, coord.URL, reg.ID, "90,6,99,Research,7\n"); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	for _, req := range []DiscoverRequest{
		{Dataset: reg.ID, MaxAgreeBytes: 1},
		{Dataset: reg.ID, MaxAgreeBytes: 1},
		{Dataset: reg.ID, Algorithm: "tane", MaxPartitionBytes: 64},
	} {
		if code, resp := discover(t, coord, req); code != http.StatusOK || resp.Partial {
			t.Fatalf("%s discover: status %d partial=%v", req.Algorithm, code, resp.Partial)
		}
	}
	return coord, worker
}

// checkMetricsAgree requires every numeric /v1/stats field of the server
// at url to appear in /metrics under its statsMetric family with the same
// value, the families of absent sections to be absent, and no sampled
// family to lack a stats field. It returns the stats paths it saw.
func checkMetricsAgree(t *testing.T, url string) map[string]bool {
	t.Helper()
	var st StatsResponse
	if code := getJSON(t, url+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	m := scrapeMetrics(t, url)
	seen := map[string]bool{}
	statsLeaves(reflect.ValueOf(st), "", func(path, key string, want float64) {
		seen[path] = true
		name, ok := statsMetric[path]
		if !ok {
			t.Errorf("stats field %s has no metric", path)
			return
		}
		if key != "" {
			name = fmt.Sprintf("%s{phase=%q}", name, key)
		}
		if strings.HasSuffix(path, "_ms") {
			want /= 1000
		}
		got, ok := m[name]
		switch {
		case !ok:
			t.Errorf("metric %s (stats %s) missing from exposition", name, path)
		case path == "uptime_ms":
			// Scraped after /v1/stats, so only later.
			if got < want || got > want+60 {
				t.Errorf("%s = %v, /v1/stats says %v", name, got, want)
			}
		case got != want:
			t.Errorf("%s = %v, /v1/stats says %v", name, got, want)
		}
	})
	families := map[string]string{}
	for path, name := range statsMetric {
		families[name] = path
	}
	for series := range m {
		name, _, _ := strings.Cut(series, "{")
		if strings.HasPrefix(name, "depminerd_http_") || name == "depminerd_build_info" {
			continue
		}
		path, ok := families[name]
		if !ok {
			t.Errorf("metric %s renders no stats field", series)
		} else if !seen[path] {
			t.Errorf("metric %s present but its stats field %s is not", series, path)
		}
	}
	return seen
}

// TestMetricsAgreeWithStats proves the tentpole invariant: /metrics and
// /v1/stats are two renderings of one snapshot, so every number matches,
// on a durable coordinator (all sections present) and on its
// memory-only worker (no durable section).
func TestMetricsAgreeWithStats(t *testing.T) {
	coord, worker := statsTraffic(t)
	seen := checkMetricsAgree(t, coord.URL)
	for path := range statsMetric {
		if !seen[path] {
			t.Errorf("coordinator stats lack field %s", path)
		}
	}
	var st StatsResponse
	getJSON(t, coord.URL+"/v1/stats", &st)
	if st.Discoveries.Total < 1 || st.Cache.Hits < 1 || st.Durable.AppendRecords != 1 ||
		st.Shard.Remote < 1 || st.Pstore.PeakBytes < 1 {
		t.Fatalf("test drove too little traffic: %+v", st)
	}

	wseen := checkMetricsAgree(t, worker.URL)
	if wseen["durable.datasets"] || !wseen["shard.served"] {
		t.Errorf("worker sections: durable=%v shard=%v, want only shard", wseen["durable.datasets"], wseen["shard.served"])
	}
	var wst StatsResponse
	getJSON(t, worker.URL+"/v1/stats", &wst)
	if wst.Shard.Served < 1 || wst.Shard.ServedSets < 1 {
		t.Fatalf("worker served no shard: %+v", wst.Shard)
	}

	m := scrapeMetrics(t, coord.URL)
	// HTTP middleware metrics cover the requests this test just made,
	// labelled by route pattern, not raw path.
	if m[`depminerd_http_requests_total{code="200",method="POST",route="/v1/discover"}`] < 3 {
		t.Errorf("http_requests_total for /v1/discover missing or low; have %v",
			m[`depminerd_http_requests_total{code="200",method="POST",route="/v1/discover"}`])
	}
	// Build info is present as a constant series; exact labels vary by
	// build, so probe via the Registry.
	found := false
	for k := range m {
		if strings.HasPrefix(k, "depminerd_build_info{") {
			found = true
			if m[k] != 1 {
				t.Errorf("build_info = %v, want 1", m[k])
			}
		}
	}
	if !found {
		t.Error("depminerd_build_info missing")
	}
}

// metricsHelpGolden holds the sorted # HELP and # TYPE lines of a
// coordinator's /metrics after statsTraffic, as an earlier build
// rendered them. Family names, help text and kinds are what dashboards
// and alerts key on, so they must not change by accident.
const metricsHelpGolden = "testdata/metrics_help.golden"

// metricsHelp returns the sorted # HELP and # TYPE lines of the /metrics
// exposition at url.
func metricsHelp(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var meta []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			meta = append(meta, line)
		}
	}
	sort.Strings(meta)
	return []byte(strings.Join(meta, "\n") + "\n")
}

func TestMetricsHelpGolden(t *testing.T) {
	coord, _ := statsTraffic(t)
	want, err := os.ReadFile(metricsHelpGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricsHelp(t, coord.URL); !bytes.Equal(got, want) {
		t.Fatalf("/metrics HELP/TYPE lines differ from %s:\n%s", metricsHelpGolden, got)
	}
}

func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var v wire.VersionResponse
	if code := getJSON(t, ts.URL+"/v1/version", &v); code != http.StatusOK {
		t.Fatalf("version status = %d", code)
	}
	if v.GoVersion == "" || v.Revision == "" || v.Version == "" {
		t.Errorf("version response has empty fields: %+v", v)
	}
	// Baseline liveness + readiness on a healthy server.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz = %d", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Errorf("readyz = %d", code)
	}
}

// TestObsHammer drives mixed traffic while concurrently scraping
// /metrics, asserting (under -race) that scrapes parse throughout,
// counters are monotone, and gauges drain to zero once traffic stops.
func TestObsHammer(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobs: 8})
	reg := register(t, ts, relation.PaperExample())
	appendRel, err := relation.FromRows(
		[]string{"k", "v"},
		[][]string{{"1", "a"}, {"2", "b"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	appendDS := register(t, ts, appendRel)

	const workers = 6
	const iters = 25
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Scraper: successive scrapes must parse and every *_total series
	// must be non-decreasing.
	scrapes := make(chan map[string]float64, 256)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			scrapes <- scrapeMetrics(t, ts.URL)
		}
	}()

	var traffic sync.WaitGroup
	for w := 0; w < workers; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			for i := 0; i < iters; i++ {
				switch i % 3 {
				case 0:
					postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, nil)
				case 1:
					postCSV(t, ts.URL+"/v1/datasets/"+appendDS.ID+"/rows",
						fmt.Sprintf("k-%d-%d,v\n", w, i), nil)
				case 2:
					getJSON(t, ts.URL+"/v1/stats", nil)
				}
			}
		}(w)
	}
	traffic.Wait()
	close(stop)
	wg.Wait()
	close(scrapes)

	var prev map[string]float64
	n := 0
	for m := range scrapes {
		n++
		if prev != nil {
			for k, v := range prev {
				if !strings.Contains(k, "_total") {
					continue
				}
				if cur, ok := m[k]; ok && cur < v {
					t.Errorf("counter %s went backwards: %v -> %v", k, v, cur)
				}
			}
		}
		prev = m
	}
	if n == 0 {
		t.Fatal("scraper never ran")
	}

	final := scrapeMetrics(t, ts.URL)
	// The scrape that reads the gauge is itself in flight, so the steady
	// state after traffic stops is exactly 1, not 0.
	if v := final["depminerd_http_in_flight_requests"]; v != 1 {
		t.Errorf("http_in_flight_requests = %v after traffic stopped, want 1 (the scrape itself)", v)
	}
	if v := final["depminerd_jobs_running"]; v != 0 {
		t.Errorf("jobs_running = %v after traffic stopped, want 0", v)
	}
	// Same dataset + params means later discovers are cache hits; only
	// the miss increments discoveries_total, but every request is counted
	// by the HTTP middleware under the route pattern.
	if final["depminerd_discoveries_total"] < 1 {
		t.Errorf("discoveries_total = %v, want >= 1", final["depminerd_discoveries_total"])
	}
	wantDiscovers := float64(workers * (iters/3 + 1)) // i%3==0 iterations
	if got := final[`depminerd_http_requests_total{code="200",method="POST",route="/v1/discover"}`]; got != wantDiscovers {
		t.Errorf("http_requests_total for /v1/discover = %v, want %v", got, wantDiscovers)
	}
	if final["depminerd_http_panics_total"] != 0 {
		t.Errorf("panics_total = %v, want 0", final["depminerd_http_panics_total"])
	}
}

// TestRequestIDPropagation is the end-to-end tracing proof: a client
// request id sent to a coordinator appears in the coordinator's log
// lines AND in the logs of the workers that served its shards, and is
// echoed on the response.
func TestRequestIDPropagation(t *testing.T) {
	workerBuf := &syncBuffer{}
	workerLog, err := obs.NewLogger(workerBuf, obs.Config{Level: "debug"})
	if err != nil {
		t.Fatal(err)
	}
	coordBuf := &syncBuffer{}
	coordLog, err := obs.NewLogger(coordBuf, obs.Config{Level: "debug"})
	if err != nil {
		t.Fatal(err)
	}

	endpoints := newWorkerFleet(t, 2, Config{Logger: workerLog})
	_, ts := newCoordServer(t, endpoints, Config{Logger: coordLog})
	reg := register(t, ts, shardTestRelation(t, 77))

	const rid = "e2e-trace-0042"
	body, err := json.Marshal(DiscoverRequest{Dataset: reg.ID, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/discover", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.RequestIDHeader, rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("discover status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(wire.RequestIDHeader); got != rid {
		t.Errorf("response echoed id %q, want %q", got, rid)
	}

	needle := "request_id=" + rid
	if !strings.Contains(coordBuf.String(), needle) {
		t.Errorf("coordinator log has no line with %s:\n%s", needle, coordBuf.String())
	}
	if !strings.Contains(workerBuf.String(), needle) {
		t.Errorf("worker logs have no line with %s — the id did not propagate over the shard dispatch:\n%s",
			needle, workerBuf.String())
	}
	// The worker-side shard event itself carries the id, proving the ctx
	// attrs (not just the access log) propagate it.
	if served := logLines(workerBuf.String(), `msg="shard served"`); len(served) == 0 {
		t.Errorf("worker logs missing the shard-served event:\n%s", workerBuf.String())
	} else {
		for _, line := range served {
			if !strings.Contains(line, needle) {
				t.Errorf("shard-served line lacks %s: %s", needle, line)
			}
		}
	}
	// And the coordinator logged its fan-out under the same id.
	if !strings.Contains(coordBuf.String(), "shard fan-out done") {
		t.Errorf("coordinator logs missing the fan-out event:\n%s", coordBuf.String())
	}
}

// logLines returns the lines of a text-format log that contain every
// needle.
func logLines(log string, needles ...string) []string {
	var out []string
	for _, line := range strings.Split(log, "\n") {
		match := line != ""
		for _, n := range needles {
			match = match && strings.Contains(line, n)
		}
		if match {
			out = append(out, line)
		}
	}
	return out
}

// TestAsyncDiscoveryLogAttrs follows an async discovery onto its job
// goroutine: the job runs under the server's base context, yet every
// line it logs keeps the submitting request's attributes and adds the
// job id.
func TestAsyncDiscoveryLogAttrs(t *testing.T) {
	buf := &syncBuffer{}
	log, err := obs.NewLogger(buf, obs.Config{Level: "debug"})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Logger: log})
	reg := register(t, ts, relation.PaperExample())

	const rid = "async-trace-7"
	force := true
	body, err := json.Marshal(DiscoverRequest{Dataset: reg.ID, Algorithm: "depminer2", Async: &force})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/discover", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.RequestIDHeader, rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var j JobInfo
	err = json.NewDecoder(resp.Body).Decode(&j)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async discover: status %d, %v", resp.StatusCode, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j.State == JobRunning || j.State == "" {
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
		if code := getJSON(t, ts.URL+"/v1/jobs/"+j.ID, &j); code != http.StatusOK {
			t.Fatalf("job poll status = %d", code)
		}
	}
	if j.State != JobDone {
		t.Fatalf("job = %+v", j)
	}

	want := []string{"request_id=" + rid, "job_id=" + j.ID, "dataset=" + reg.ID, "algorithm=depminer2"}
	for _, msg := range []string{`msg="discovery phases"`, `msg="discovery done"`} {
		if len(logLines(buf.String(), msg)) == 0 {
			t.Errorf("no %s line in:\n%s", msg, buf.String())
		}
		for _, line := range logLines(buf.String(), msg) {
			for _, w := range want {
				if !strings.Contains(line, w) {
					t.Errorf("%s line lacks %s: %s", msg, w, line)
				}
			}
		}
	}
}
