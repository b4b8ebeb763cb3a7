package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/durable"
	"repro/internal/relation"
)

// TestAdmissionControlRejectsOverCap pins jobs in the running state with
// the test hook, so the 429 behaviour is deterministic: with MaxJobs=2,
// the first two async submissions are admitted and every further one is
// rejected with Retry-After until a slot frees.
func TestAdmissionControlRejectsOverCap(t *testing.T) {
	const capJobs = 2
	s, ts := newTestServer(t, Config{MaxJobs: capJobs})
	release := make(chan struct{})
	s.testHookJobStart = func(string) { <-release }
	reg := register(t, ts, relation.PaperExample())

	force := true
	submit := func() (int, http.Header) {
		req := DiscoverRequest{Dataset: reg.ID, Async: &force}
		body := fmt.Sprintf(`{"dataset":%q,"async":true}`, req.Dataset)
		resp, err := http.Post(ts.URL+"/v1/discover", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, resp.Header
	}

	for i := 0; i < capJobs; i++ {
		if code, _ := submit(); code != http.StatusAccepted {
			t.Fatalf("submission %d: status = %d, want 202", i, code)
		}
	}
	for i := 0; i < 5; i++ {
		code, hdr := submit()
		if code != http.StatusTooManyRequests {
			t.Fatalf("over-cap submission %d: status = %d, want 429", i, code)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After header")
		}
	}
	st := s.jobs.stats()
	if st.Running != capJobs || st.Rejected != 5 {
		t.Fatalf("queue stats = %+v", st)
	}

	// Freeing the slots lets the pinned jobs finish and new work in (the
	// hook returns immediately once the channel is closed).
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for s.jobs.stats().Running > 0 {
		if time.Now().After(deadline) {
			t.Fatal("pinned jobs never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var resp DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &resp); code != http.StatusOK {
		t.Fatalf("post-release discover status = %d", code)
	}
	if st := s.jobs.stats(); st.PeakRunning > capJobs {
		t.Fatalf("peak running %d exceeded the cap %d", st.PeakRunning, capJobs)
	}
}

// TestDiscoverHammer fires a burst of concurrent discoveries (run with
// -race in CI): every response must be 200 or 429 — never a 5xx — and
// admission control must never let more than MaxJobs pipelines run at
// once, which both the peak counter and the hook-observed concurrency
// verify.
func TestDiscoverHammer(t *testing.T) {
	const capJobs = 3
	s, ts := newTestServer(t, Config{MaxJobs: capJobs, SyncRowLimit: 1 << 20})
	var inFlight, maxInFlight atomic.Int64
	s.testHookJobStart = func(string) {
		n := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(time.Millisecond) // widen the overlap window
		inFlight.Add(-1)
	}
	r, err := datagen.Generate(datagen.Spec{Attrs: 5, Rows: 200, Correlation: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	reg := register(t, ts, r)

	const clients = 24
	var wg sync.WaitGroup
	var ok200, rej429 atomic.Int64
	algos := []string{"depminer", "depminer2", "fastfds", "tane", "incremental"}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"dataset":%q,"algorithm":%q}`, reg.ID, algos[i%len(algos)])
			resp, err := http.Post(ts.URL+"/v1/discover", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				rej429.Add(1)
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	if got := maxInFlight.Load(); got > capJobs {
		t.Fatalf("observed %d concurrent pipelines, cap is %d", got, capJobs)
	}
	if st := s.jobs.stats(); st.PeakRunning > capJobs {
		t.Fatalf("peak running %d exceeded the cap %d", st.PeakRunning, capJobs)
	}
	if ok200.Load() == 0 {
		t.Fatal("no discovery succeeded under load")
	}
	t.Logf("hammer: %d ok, %d rejected, peak concurrency %d/%d",
		ok200.Load(), rej429.Load(), maxInFlight.Load(), capJobs)
}

// TestConcurrentAppendsAndDiscoveries interleaves writers (appends) and
// readers (discoveries) on one dataset under -race. The readers rotate
// through every algorithm that reads the relation, Armstrong included,
// so each discovery races appends into the very columns it reads. Every
// 200 must be exactly right for the prefix it reports: its cover equals
// a library run on the first resp.Rows rows of a client-side replica,
// and its fingerprint is those rows' content fingerprint.
func TestConcurrentAppendsAndDiscoveries(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobs: 4})
	base := relation.PaperExample()
	reg := register(t, ts, base)
	// The replica: the base rows, then row(1), row(2), ... in the order
	// the single writer appends them.
	row := func(i int) []string {
		return []string{fmt.Sprintf("e%d", i), fmt.Sprintf("d%d", i%3), fmt.Sprint(1990 + i%10), fmt.Sprintf("Dept%d", i%3), fmt.Sprintf("m%d", i%4)}
	}

	var wg sync.WaitGroup
	stop := time.Now().Add(300 * time.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for time.Now().Before(stop) {
			i++
			resp, err := http.Post(ts.URL+"/v1/datasets/"+reg.ID+"/rows", "text/csv", strings.NewReader(strings.Join(row(i), ",")+"\n"))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("append status = %d", resp.StatusCode)
				return
			}
		}
	}()
	requests := []DiscoverRequest{
		{Dataset: reg.ID, Algorithm: "depminer"},
		{Dataset: reg.ID, Algorithm: "depminer2"},
		{Dataset: reg.ID, Algorithm: "tane"},
		{Dataset: reg.ID, Algorithm: "fastfds"},
		{Dataset: reg.ID, Algorithm: "depminer", Armstrong: true},
	}
	var mu sync.Mutex
	var served []DiscoverResponse
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; time.Now().Before(stop); k++ {
				req := requests[k%len(requests)]
				body, _ := json.Marshal(req)
				hr, err := http.Post(ts.URL+"/v1/discover", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var resp DiscoverResponse
				err = json.NewDecoder(hr.Body).Decode(&resp)
				hr.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				switch hr.StatusCode {
				case http.StatusOK:
					if req.Armstrong && len(resp.Armstrong) == 0 {
						t.Errorf("armstrong discovery at %d rows returned no relation", resp.Rows)
					}
					mu.Lock()
					served = append(served, resp)
					mu.Unlock()
				case http.StatusTooManyRequests:
				default:
					t.Errorf("discover %s status = %d", req.Algorithm, hr.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	if len(served) == 0 {
		t.Fatal("no discovery succeeded")
	}
	t.Logf("%d discoveries checked against the replica", len(served))
	rows := make([][]string, base.Rows())
	for tt := range rows {
		rows[tt] = base.Row(tt)
	}
	prefix := func(n int) *relation.Relation {
		for i := len(rows) - base.Rows() + 1; len(rows) < n; i++ {
			rows = append(rows, row(i))
		}
		r, err := relation.FromRows(base.Names(), rows[:n])
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, resp := range served {
		want := prefix(resp.Rows)
		if !sameCover(resp.FDs, fromScratchCover(t, want)) {
			t.Fatalf("%s at %d rows: cover differs from the library's on the replica prefix", resp.Algorithm, resp.Rows)
		}
		if fp := durable.FingerprintOf(want).Sum(); resp.Fingerprint != fp {
			t.Fatalf("%s at %d rows: fingerprint %s, want %s", resp.Algorithm, resp.Rows, resp.Fingerprint, fp)
		}
	}
}
