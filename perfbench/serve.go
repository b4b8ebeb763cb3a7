package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	depminer "repro"
	"repro/client"
	"repro/internal/datagen"
	"repro/internal/durable"
	"repro/internal/extsort"
	"repro/internal/incremental"
	"repro/internal/server"
	"repro/wire"
)

// The serve workload runs depminerd in process on a loopback listener,
// with a fresh durable data directory and every other Config field at
// its default, and drives it closed-loop from one client per growing
// dataset. Each client repeats a fixed cycle: appendsPerCycle appends of
// one generated row, one cold discovery, and one discovery of the hot
// dataset, which the result cache answers.

const (
	appendsPerCycle = 4
	clients         = 2
)

// coldKind is one kind of cold discovery. Cycles rotate through them, so
// every end-to-end discovery metric has served samples too.
type coldKind struct {
	metric, algorithm string
	maxAgreeBytes     int64
}

var coldKinds = []coldKind{
	{"depminer_s", "depminer", 0},
	{"depminer2_s", "depminer2", 0},
	{"tane_s", "tane", 0},
	{"depminer_ooc_s", "depminer", extsort.SetBytes},
}

// growing is one client's dataset and its replica: the rows the client
// believes the server holds, with their running fingerprint.
type growing struct {
	id      string
	names   []string
	rows    [][]string
	initial int
	fp      *durable.Fingerprint
	rng     *rand.Rand
	dom     int
	// last is the newest cold discovery; the cycle ends with no append
	// after it, so at the end of a run it describes the final replica.
	last *wire.DiscoverResponse
}

// nextRow draws a row from the dataset's own value domain, as datagen
// draws its columns.
func (g *growing) nextRow() []string {
	row := make([]string, len(g.names))
	for a := range row {
		row[a] = strconv.Itoa(g.rng.IntN(g.dom))
	}
	return row
}

// served is a running in-process server with its datasets registered
// and the hot result cached.
type served struct {
	srv      *server.Server
	hs       *http.Server
	serveErr chan error
	url      string
	hotID    string
	hotCover []string
	gs       []*growing
}

var noAsync = new(bool)

// startServed boots a server in dir and registers the datasets: one
// growing dataset per client (g with distinct seeds) and the hot one,
// warmed by a discovery that is checked against the library.
func startServed(ctx context.Context, dir string, g, hot datagen.Spec) (s *served, err error) {
	srv, err := server.New(server.Config{DataDir: filepath.Join(dir, "data")})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(ctx)
		return nil, err
	}
	s = &served{srv: srv, hs: &http.Server{Handler: srv}, serveErr: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { s.serveErr <- s.hs.Serve(ln) }()
	defer func() {
		if err != nil {
			_ = s.stop(ctx)
			s = nil
		}
	}()
	c := client.New(s.url)
	hotRel, err := register(ctx, c, "hot", hot)
	if err != nil {
		return s, err
	}
	s.hotID = hotRel.id
	for i := range clients {
		spec := g
		spec.Seed = g.Seed*clients + uint64(i)
		gr, err := register(ctx, c, fmt.Sprintf("g%d", i), spec)
		if err != nil {
			return s, err
		}
		gr.rng = rand.New(rand.NewPCG(spec.Seed, 0x9e3779b97f4a7c15))
		gr.dom = spec.DomainSize()
		s.gs = append(s.gs, gr)
	}
	resp, err := c.Discover(ctx, wire.DiscoverRequest{Dataset: s.hotID, Async: noAsync})
	if err != nil {
		return s, fmt.Errorf("warming the hot dataset: %w", err)
	}
	want, err := libraryCover(ctx, hotRel.names, hotRel.rows)
	if err != nil {
		return s, err
	}
	if resp.Cached || !slices.Equal(resp.FDs, want) {
		return s, fmt.Errorf("%w: warm-up discovery of the hot dataset (cached=%t, %d FDs, want %d)", errMismatch, resp.Cached, len(resp.FDs), len(want))
	}
	s.hotCover = resp.FDs
	return s, nil
}

// register generates spec, registers it under name and checks the
// returned fingerprint against the content.
func register(ctx context.Context, c *client.Client, name string, spec datagen.Spec) (*growing, error) {
	rel, err := depminer.Generate(spec)
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := rel.WriteCSV(&csv); err != nil {
		return nil, err
	}
	resp, err := c.Register(ctx, name, csv.Bytes())
	if err != nil {
		return nil, fmt.Errorf("registering %s: %w", name, err)
	}
	g := &growing{id: resp.ID, names: rel.Names(), rows: make([][]string, rel.Rows()), initial: rel.Rows(), fp: durable.NewFingerprint(rel.Names())}
	for i := range g.rows {
		g.rows[i] = rel.Row(i)
		g.fp.AddRow(g.rows[i])
	}
	if resp.Fingerprint != g.fp.Sum() {
		return nil, fmt.Errorf("%w: %s registered with fingerprint %s, content has %s", errMismatch, name, resp.Fingerprint, g.fp.Sum())
	}
	return g, nil
}

// libraryCover is depminer.Discover's cover of the rows, rendered as the
// server renders FDs.
func libraryCover(ctx context.Context, names []string, rows [][]string) ([]string, error) {
	rel, err := depminer.NewRelation(names, rows)
	if err != nil {
		return nil, err
	}
	res, err := depminer.Discover(ctx, rel, depminer.Options{Armstrong: depminer.ArmstrongNone})
	if err != nil {
		return nil, err
	}
	out := make([]string, len(res.FDs))
	for i, f := range res.FDs {
		out[i] = f.Names(names)
	}
	return out, nil
}

// stop drains the server, closes the listener and waits for Serve to
// return.
func (s *served) stop(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	err = errors.Join(err, s.hs.Shutdown(ctx))
	if serr := <-s.serveErr; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// drive runs the clients until the deadline, or for cycles cycles each
// when cycles > 0, and returns the traffic's wall time. Each client has
// one connection and its own recorder, merged into rec at the end.
func (s *served) drive(ctx context.Context, rec *recorder, until time.Time, cycles int) time.Duration {
	var retries atomic.Int64
	recs := make([]*recorder, len(s.gs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, g := range s.gs {
		recs[i] = newRecorder()
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		c := client.New(s.url, client.WithHTTPClient(&http.Client{Transport: tr}), client.WithAttemptObserver(func(a client.Attempt) {
			if a.Try > 1 {
				retries.Add(1)
			}
		}))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tr.CloseIdleConnections()
			for k := 0; ; k++ {
				if cycles > 0 && k == cycles || cycles == 0 && k > 0 && !time.Now().Before(until) {
					return
				}
				for range appendsPerCycle {
					s.appendRow(ctx, recs[i], c, g)
				}
				// The second client runs two kinds apart from the first, so
				// concurrent cold discoveries differ in kind.
				s.coldDiscover(ctx, recs[i], c, g, coldKinds[(k+2*i)%len(coldKinds)])
				s.hotDiscover(ctx, recs[i], c)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, r := range recs {
		rec.merge(r)
	}
	rec.add("client.retries", float64(retries.Load()))
	return elapsed
}

func (s *served) appendRow(ctx context.Context, rec *recorder, c *client.Client, g *growing) {
	row := g.nextRow()
	t0 := time.Now()
	resp, err := c.Append(ctx, g.id, [][]string{row})
	d := time.Since(t0)
	if err == nil {
		g.rows = append(g.rows, row)
		g.fp.AddRow(row)
		if resp.Fingerprint != g.fp.Sum() || resp.Rows != len(g.rows) {
			err = fmt.Errorf("%w: append acknowledged %d rows with fingerprint %s, replica has %d rows with %s",
				errMismatch, resp.Rows, resp.Fingerprint, len(g.rows), g.fp.Sum())
		}
	}
	rec.op("append", d, err)
}

func (s *served) coldDiscover(ctx context.Context, rec *recorder, c *client.Client, g *growing, k coldKind) {
	req := wire.DiscoverRequest{Dataset: g.id, Algorithm: k.algorithm, MaxAgreeBytes: k.maxAgreeBytes, Async: noAsync}
	t0 := time.Now()
	resp, err := c.Discover(ctx, req)
	d := time.Since(t0)
	if err == nil {
		switch {
		case resp.Cached || resp.Partial:
			err = fmt.Errorf("cold discovery answered with cached=%t partial=%t", resp.Cached, resp.Partial)
		case resp.Fingerprint != g.fp.Sum() || resp.Rows != len(g.rows):
			err = fmt.Errorf("%w: discovery saw %d rows, replica has %d", errMismatch, resp.Rows, len(g.rows))
		case k.maxAgreeBytes > 0 && resp.SpilledRuns == 0:
			err = fmt.Errorf("out-of-core discovery spilled nothing")
		}
	}
	rec.op(k.metric, d, err)
	if err != nil {
		return
	}
	g.last = resp
	rec.add("cold", d.Seconds())
	if k.algorithm == "depminer" && k.maxAgreeBytes == 0 {
		rec.add("server.pipeline_ms", resp.ElapsedMS)
		rec.add("server.overhead_ms", ms(d)-resp.ElapsedMS)
	}
	if k.algorithm != "tane" {
		rec.add("depminer_colds", 1)
	}
}

func (s *served) hotDiscover(ctx context.Context, rec *recorder, c *client.Client) {
	t0 := time.Now()
	resp, err := c.Discover(ctx, wire.DiscoverRequest{Dataset: s.hotID, Async: noAsync})
	d := time.Since(t0)
	if err == nil && (!resp.Cached || !slices.Equal(resp.FDs, s.hotCover)) {
		err = fmt.Errorf("%w: hot discovery (cached=%t, %d FDs, want the %d warm-up FDs)", errMismatch, resp.Cached, len(resp.FDs), len(s.hotCover))
	}
	rec.op("hit", d, err)
}

// finalChecks gates the end of the traffic: every replica has the
// server's row count and fingerprint, its last cold cover equals the
// library's cover of the replica, and the server counted exactly the
// designed traffic — no async discovery and one cache hit per cold
// discovery.
func (s *served) finalChecks(ctx context.Context, rec *recorder, before, after *wire.StatsResponse) {
	c := client.New(s.url)
	for _, g := range s.gs {
		info, err := c.Dataset(ctx, g.id)
		if err != nil {
			rec.check(err)
			continue
		}
		if info.Rows != len(g.rows) || info.Fingerprint != durable.ContentFingerprint(g.names, g.rows) {
			rec.check(fmt.Errorf("%w: server holds %d rows of %s, replica %d", errMismatch, info.Rows, g.id, len(g.rows)))
		}
		if g.last == nil || g.last.Fingerprint != info.Fingerprint {
			rec.check(fmt.Errorf("%w: no cold discovery of %s's final content", errMismatch, g.id))
			continue
		}
		want, err := libraryCover(ctx, g.names, g.rows)
		if err == nil && !slices.Equal(g.last.FDs, want) {
			err = fmt.Errorf("%w: served cover of %s has %d FDs, library %d", errMismatch, g.id, len(g.last.FDs), len(want))
		}
		rec.check(err)
	}
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	if async := after.Discoveries.Async - before.Discoveries.Async; async != 0 {
		rec.check(fmt.Errorf("%d discoveries ran async", async))
	}
	if hits != misses || hits != int64(len(rec.samples["hit"])) {
		rec.check(fmt.Errorf("cache counted %d hits and %d misses for %d hot discoveries", hits, misses, len(rec.samples["hit"])))
	}
}

// setServerLayers reports the server's layers from the traffic recorded
// in src and the /v1/stats counters around it, into dst.
func setServerLayers(dst, src *recorder, before, after *wire.StatsResponse) {
	for _, name := range []string{"server.pipeline_ms", "server.overhead_ms", "incremental.insert_ms"} {
		if s := src.samples[name]; len(s) > 0 {
			dst.set(name, quantile(s, 0.5), len(s))
		}
	}
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	dst.set("server.cache_hit_ratio", hits/max(hits+misses, 1), int(hits+misses))
	dst.set("server.async", float64(after.Discoveries.Async-before.Discoveries.Async), 1)
	dst.set("server.rejected", float64(after.Jobs.Rejected-before.Jobs.Rejected), 1)
	dst.set("server.peak_running", float64(after.Jobs.PeakRunning), 1)
	if s := src.samples["client.retries"]; len(s) > 0 {
		dst.set("client.retries", s[len(s)-1], 1)
	}
	colds := float64(len(src.samples["depminer_colds"]))
	for _, phase := range []string{"partition", "agree_sets", "max_sets", "lhs"} {
		delta := after.Discoveries.PhaseTotalMS[phase] - before.Discoveries.PhaseTotalMS[phase]
		dst.set("server.phase_ms."+phase, delta/max(colds, 1), int(colds))
	}
	if after.Durable != nil && before.Durable != nil {
		appends := float64(after.Durable.AppendRecords - before.Durable.AppendRecords)
		dst.set("durable.syncs_per_append", float64(after.Durable.Syncs-before.Durable.Syncs)/max(appends, 1), int(appends))
		dst.set("durable.snapshots", float64(after.Durable.Snapshots-before.Durable.Snapshots), 1)
	}
}

// walProbeRows is how many rows walBytesPerRow appends per attempt.
const walProbeRows = 8

// walBytesPerRow reports the WAL growth per appended row. WALBytes is a
// gauge that drops when a snapshot folds the log, so it appends
// walProbeRows rows to the first growing dataset and keeps the first
// window in which no snapshot completed.
func (s *served) walBytesPerRow(ctx context.Context, rec, layers *recorder) error {
	c := client.New(s.url)
	for range 3 {
		before, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		for range walProbeRows {
			s.appendRow(ctx, rec, c, s.gs[0])
		}
		after, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		if before.Durable == nil || after.Durable == nil {
			return fmt.Errorf("/v1/stats has no durable section")
		}
		if after.Durable.Snapshots == before.Durable.Snapshots {
			rows := float64(after.Durable.AppendRecords - before.Durable.AppendRecords)
			layers.set("durable.wal_bytes_per_row", float64(after.Durable.WALBytes-before.Durable.WALBytes)/max(rows, 1), int(rows))
			return nil
		}
	}
	return fmt.Errorf("a snapshot completed in every WAL probe window")
}

// replayInserts times incremental.Miner.InsertCtx on a replica miner
// fed the rows each client appended, and checks the miner ends with the
// replica's agree sets intact (the cover is checked by finalChecks).
func replayInserts(ctx context.Context, rec *recorder, gs []*growing) {
	for _, g := range gs {
		m, err := incremental.New(g.names)
		for _, row := range g.rows[:g.initial] {
			if err == nil {
				err = m.InsertCtx(ctx, row)
			}
		}
		for _, row := range g.rows[g.initial:] {
			if err != nil {
				break
			}
			span(rec, "incremental.insert_ms", func() { err = m.InsertCtx(ctx, row) })
		}
		if err == nil && m.Rows() != len(g.rows) {
			err = fmt.Errorf("%w: replica miner has %d rows, want %d", errMismatch, m.Rows(), len(g.rows))
		}
		rec.check(err)
	}
}

// serveRound starts a server, runs the traffic and its checks, reports
// the server's layers into layers, and stops the server. The timed
// figures stay in rec.
func serveRound(ctx context.Context, rec, layers *recorder, s *served, until time.Time, cycles int, trace bool) (time.Duration, error) {
	c := client.New(s.url)
	before, err := c.Stats(ctx)
	if err != nil {
		return 0, err
	}
	elapsed := s.drive(ctx, rec, until, cycles)
	after, err := c.Stats(ctx)
	if err != nil {
		return 0, err
	}
	s.finalChecks(ctx, rec, before, after)
	if trace {
		rec.check(s.walBytesPerRow(ctx, rec, layers))
		replayInserts(ctx, rec, s.gs)
		setServerLayers(layers, rec, before, after)
	}
	return elapsed, nil
}

// runServe runs the serve workload. Traced, it also times the library's
// layers on the final replica of the first growing dataset — the
// relation its last cold discoveries mined.
func runServe(ctx context.Context, cfg config, rec *recorder) (err error) {
	g, hot := subSeed(cfg.sizes.g, cfg.seed, 3), subSeed(cfg.sizes.hot, cfg.seed, 6)
	rec.info["growing"] = fmt.Sprintf("%d × %s", clients, g)
	rec.info["hot"] = hot.String()
	s, err := setupRepeated(rec, cfg.dir, func(dir string) (*served, error) {
		return startServed(ctx, dir, g, hot)
	}, func(s *served) { _ = s.stop(ctx) })
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, s.stop(ctx)) }()
	rec.info["hot_fds"] = len(s.hotCover)
	runtime.GC()
	rec.info["peak_rss_reset"] = resetPeakRSS()
	elapsed, err := serveRound(ctx, rec, rec, s, time.Now().Add(cfg.seconds), 0, cfg.trace)
	if err != nil {
		return err
	}
	samplePeakRSS(rec)
	rec.setQuantile("peak_rss_mb", "peak_rss_mb", 0.5, 1)
	done := 0
	for _, k := range coldKinds {
		rec.setQuantile(k.metric, k.metric, 0.5, 1)
		done += len(rec.samples[k.metric])
	}
	done += len(rec.samples["append"]) + len(rec.samples["hit"])
	rec.set("ops_per_s", float64(done)/elapsed.Seconds(), done)
	rec.setQuantile("append_p50_ms", "append", 0.5, 1000)
	rec.setQuantile("append_p99_ms", "append", 0.99, 1000)
	rec.setQuantile("discover_p50_ms", "cold", 0.5, 1000)
	rec.setQuantile("discover_p90_ms", "cold", 0.9, 1000)
	rec.setQuantile("hit_p50_ms", "hit", 0.5, 1000)
	rec.setQuantile("hit_p90_ms", "hit", 0.9, 1000)
	rec.info["rows_appended"] = len(rec.samples["append"])
	if cfg.trace {
		g0 := s.gs[0]
		rel, err := depminer.NewRelation(g0.names, g0.rows)
		if err != nil {
			return err
		}
		e := &libEnv{rel: rel, spill: filepath.Join(cfg.dir, "trace-spill")}
		if e.snap, err = writeSnapshot(filepath.Join(cfg.dir, "trace-store"), rel); err != nil {
			return err
		}
		traceLibrary(ctx, rec, e, time.Now(), 5)
	}
	return nil
}

// probeCycles is how many cycles each client runs in a traced tall or
// wide run's served probe: one of every cold kind.
var probeCycles = len(coldKinds)

// traceServedProbe serves two growing relations and a hot one of the
// workload's shape (at probe size), so a traced tall or wide run
// reports the server's layers too. Its operations count as attempted
// and failed; its end-to-end latencies are not reported.
func traceServedProbe(ctx context.Context, cfg config, rec *recorder, probe datagen.Spec) (err error) {
	hot := probe
	hot.Seed++
	s, err := startServed(ctx, filepath.Join(cfg.dir, "probe"), probe, hot)
	if err != nil {
		return fmt.Errorf("served probe: %w", err)
	}
	defer func() { err = errors.Join(err, s.stop(ctx)) }()
	rec.info["probe"] = fmt.Sprintf("%d × %s", clients, probe)
	prec := newRecorder()
	if _, err := serveRound(ctx, prec, rec, s, time.Time{}, probeCycles, true); err != nil {
		return err
	}
	rec.merge(prec)
	return nil
}
