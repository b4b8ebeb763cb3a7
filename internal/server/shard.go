// Distributed discovery: the coordinator/worker split of the agree-set
// phase (DESIGN.md §15).
//
// A coordinator-configured server answers ordinary POST /v1/discover
// requests for depminer/depminer2 by splitting the globally sorted
// deduplicated couple list into contiguous shards and dispatching them
// to worker depminerd instances over POST /v1/shard/agree. Datasets are
// addressed by content fingerprint, so a worker provably computes over
// the same bytes the coordinator planned against; each worker streams
// its shard's sorted deduplicated agree sets back as a DMRUN1 run
// (the spill-file format generalised to the wire), which the
// coordinator adopts into its spiller — CRC-verified, order-checked,
// budget-charged — and merges alongside any local runs. The canonical
// tail (one sort, one empty-set completion, steps 2–5) runs once on the
// coordinator, so the cover is byte-identical to single-node output at
// every shard count. The single-node path sweeps the same agree.Plan as
// one shard, and both take the Algorithm 2 → 3 decision from
// core.AgreeVariant and end in the same response tail (finishDepminer).
//
// The per-shard fallback ladder: transport retry/backoff (client
// policy) → push the dataset and dispatch once more (worker answered
// 404) → compute the shard locally under the coordinator's own budget.
// A failed or slow worker therefore degrades to local work under the
// governed-partial contract — couples are never silently dropped, and a
// stream that fails verification is discarded and recomputed, never
// merged.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/internal/agree"
	"repro/internal/attrset"
	"repro/internal/core"
	"repro/internal/extsort"
	"repro/internal/faultinject"
	"repro/internal/fd"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/wire"
)

// maxShards caps the fan-out of one coordinated discovery.
const maxShards = 64

// planCacheCap bounds retained shard plans per worker. Plans are keyed
// by content fingerprint, so an append orphans old entries naturally;
// the cap keeps a worker serving many datasets from pinning every
// couple list it ever built.
const planCacheCap = 4

// coordinator is the fan-out side: one SDK client per configured worker
// endpoint, dispatched round-robin by shard index. Per-shard transport
// retry/backoff is the client package's ordinary policy.
type coordinator struct {
	endpoints []string
	clients   []*client.Client
}

func newCoordinator(endpoints []string) (*coordinator, error) {
	co := &coordinator{}
	for _, e := range endpoints {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if !strings.Contains(e, "://") {
			e = "http://" + e
		}
		co.endpoints = append(co.endpoints, e)
		co.clients = append(co.clients, client.New(e,
			client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 3, BaseDelay: 25 * time.Millisecond})))
	}
	if len(co.endpoints) == 0 {
		return nil, fmt.Errorf("no usable worker endpoints")
	}
	return co, nil
}

// coreOptions maps resolved request params onto pipeline options.
func (s *Server) coreOptions(p discoverParams, budget *guard.Budget) core.Options {
	opts := core.Options{
		Workers:       p.workers,
		MaxCouples:    p.maxCouples,
		Budget:        budget,
		Armstrong:     core.ArmstrongNone,
		MaxAgreeBytes: p.maxAgreeBytes,
		SpillDir:      s.cfg.SpillDir,
	}
	if p.algorithm == "depminer2" {
		opts.Algorithm = core.AgreeIdentifiers
	}
	if p.armstrong {
		opts.Armstrong = core.ArmstrongRealWorldOrSynthetic
	}
	return opts
}

// runDepminer serves the depminer/depminer2 algorithms: sharded across
// the worker fleet when this server is a coordinator, locally otherwise.
func (s *Server) runDepminer(ctx context.Context, d *dataset, p discoverParams, start time.Time, budget *guard.Budget) (*DiscoverResponse, error) {
	rel, fp := d.snapshot()
	resp := &DiscoverResponse{
		Dataset:     d.id,
		Fingerprint: fp,
		Algorithm:   p.algorithm,
		Rows:        rel.Rows(),
		Attributes:  rel.Arity(),
	}
	if s.coord != nil {
		return s.runSharded(ctx, d, p, start, budget, rel, fp, resp)
	}
	// Discover builds the partition database from the view itself, as
	// its timed partition phase.
	res, runErr := core.Discover(ctx, rel, s.coreOptions(p, budget))
	return s.finishDepminer(ctx, resp, res, runErr, rel.Names(), start, budget)
}

// finishDepminer is the one response and stats tail of a depminer
// discovery, local or sharded: it copies the result's counters into the
// response, folds its phases and spill traffic into the server stats,
// and renders the cover.
func (s *Server) finishDepminer(ctx context.Context, resp *DiscoverResponse, res *core.Result, runErr error, names []string, start time.Time, budget *guard.Budget) (*DiscoverResponse, error) {
	var cover fd.Cover
	var partial bool
	if res != nil {
		cover, partial = res.FDs, res.Partial
		resp.Couples = res.Couples
		resp.AgreeSets = len(res.AgreeSets)
		resp.MaxSets = len(res.MaxSets)
		resp.Notes = res.Notes
		if arm := res.Armstrong; arm != nil {
			resp.ArmstrongSynthetic = res.ArmstrongSynthetic
			resp.Armstrong = make([][]string, arm.Rows())
			for t := range resp.Armstrong {
				resp.Armstrong[t] = arm.Row(t)
			}
		}
		resp.SpilledRuns = res.Stats.Spill.RunsSpilled
		resp.SpilledBytes = res.Stats.Spill.SpilledBytes
		s.stats.mu.Lock()
		s.stats.addPhases(res.Stats)
		s.stats.spill.Add(res.Stats.Spill)
		s.stats.mu.Unlock()
		s.logPhases(ctx, res.Stats)
	}
	return finishResponse(resp, cover, partial, runErr, names, start, budget)
}

// runSharded executes one coordinated discovery: split the couple
// space, fan the shards out, adopt the returned runs, merge, and run
// the canonical tail locally. Only governance (budget, deadline) can
// make the outcome partial; nothing can make it wrong — a stream that
// fails verification is discarded and its shard recomputed. A governed
// cutoff before the merge keeps the topology and couple count in the
// response but reports no cover. rel is the dataset's view at
// fingerprint fp.
func (s *Server) runSharded(ctx context.Context, d *dataset, p discoverParams, start time.Time, budget *guard.Budget, rel *relation.Relation, fp string, resp *DiscoverResponse) (*DiscoverResponse, error) {
	// The coordinator plans through the same fingerprint-keyed cache the
	// workers use: replanning an unchanged dataset would re-sort the
	// whole couple space on every discovery for nothing. An append
	// changes the fingerprint, so a cached plan can never be stale. The
	// partition build is timed only when this discovery plans; a cached
	// plan reports no partition phase.
	var build time.Duration
	plan, err := s.plans.get(fp, func() (*agree.Plan, error) {
		t0 := time.Now()
		db := partition.NewDatabase(rel)
		build = time.Since(t0)
		return agree.NewPlan(db), nil
	})
	if err != nil {
		return nil, err
	}
	resp.Couples = plan.Couples()

	// The degradation decision is core's, made once from the global
	// couple count and dispatched uniformly, so no shard can diverge —
	// and the note matches single-node byte for byte.
	opts := s.coreOptions(p, budget)
	variant, note := core.AgreeVariant(opts, plan.Couples())
	algo := "depminer"
	if variant == agree.VariantIdentifiers {
		algo = "depminer2"
	}
	if note != "" {
		resp.Notes = []string{note}
	}

	n := p.shards
	if n == 0 {
		n = s.cfg.DefaultShards
	}
	if n == 0 {
		n = len(s.coord.endpoints)
	}
	if n > maxShards {
		n = maxShards
	}
	shards := plan.Split(n)
	resp.Shards = len(shards)

	agreeStart := time.Now()
	// Budget parity with the single-node sweep: the whole couple space is
	// charged once, up front, by whoever owns the discovery (workers
	// charge their own shard against their own budgets).
	if cerr := budget.Charge("agree", plan.Couples()); cerr != nil {
		return finishResponse(resp, nil, true, cerr, nil, start, budget)
	}

	sp := extsort.NewSpiller(s.cfg.SpillDir, budget)
	defer sp.Close()

	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	run := &shardRun{
		s: s, d: d, p: p, rel: rel, fp: fp, plan: plan,
		variant: variant, algo: algo, budget: budget, sp: sp, cancel: cancel,
	}
	defer run.flushStats()

	var wg sync.WaitGroup
	for i, sh := range shards {
		if sh.Start == sh.End {
			continue
		}
		wg.Add(1)
		go func(i int, sh agree.Shard) {
			defer wg.Done()
			run.runShard(dctx, i, sh)
		}(i, sh)
	}
	wg.Wait()
	resp.ShardsRemote = run.remote
	resp.ShardsLocal = run.local
	obs.Event(ctx, s.log, "shard fan-out done",
		slog.Int("shards", len(shards)),
		slog.Int("remote", run.remote),
		slog.Int("local", run.local),
		slog.Duration("dispatch", run.dispatchDur),
		slog.Duration("stream", run.streamDur))
	if run.firstErr != nil {
		if guard.Governed(run.firstErr) {
			return finishResponse(resp, nil, true, run.firstErr, nil, start, budget)
		}
		return nil, run.firstErr
	}

	// Merge: adopted runs (on disk) and local-fallback runs (in memory)
	// feed one k-way dedup merge; Finish applies the canonical sort and
	// empty-set completion exactly once.
	mergeStart := time.Now()
	var merged attrset.Family
	mergeErr := faultinject.Fire(faultinject.ShardMerge)
	if mergeErr == nil {
		mergeErr = sp.Merge(run.localRuns, func(set attrset.Set) error {
			merged = append(merged, set)
			return nil
		})
	}
	if mergeErr != nil {
		if guard.Governed(mergeErr) {
			return finishResponse(resp, nil, true, mergeErr, nil, start, budget)
		}
		return nil, fmt.Errorf("shard merge: %w", mergeErr)
	}
	fam := plan.Finish(merged)
	run.mergeDur = time.Since(mergeStart)
	if cerr := budget.Charge("agree", len(fam)); cerr != nil {
		resp.AgreeSets = len(fam)
		return finishResponse(resp, nil, true, cerr, nil, start, budget)
	}
	agreeDur := time.Since(agreeStart)
	obs.Event(ctx, s.log, "shard merge done",
		slog.Int("sets", len(fam)),
		slog.Duration("merge", run.mergeDur))

	res, runErr := core.DiscoverFromAgreeSets(ctx, rel, fam, rel.Arity(), opts)
	if res != nil {
		// The agree-set counters are the fan-out's: the coordinator's
		// couple count and note, the distributed sweep on its clock, and
		// the spill traffic of the merge plus the local-fallback shards.
		res.Couples = plan.Couples()
		res.Notes = append(resp.Notes, res.Notes...)
		res.Stats.Partition.Duration = build
		res.Stats.AgreeSets.Duration = agreeDur
		res.Stats.Spill = sp.Stats()
		res.Stats.Spill.Add(run.spill)
	}
	return s.finishDepminer(ctx, resp, res, runErr, rel.Names(), start, budget)
}

// shardRun is the mutable state of one fan-out.
type shardRun struct {
	s       *Server
	d       *dataset
	p       discoverParams
	rel     *relation.Relation
	fp      string
	plan    *agree.Plan
	variant agree.Variant
	algo    string
	budget  *guard.Budget
	sp      *extsort.Spiller
	cancel  context.CancelFunc

	csvOnce sync.Once
	csvData []byte
	csvErr  error

	mu        sync.Mutex
	localRuns [][]attrset.Set
	attempted int
	remote    int
	local     int
	spill     extsort.Stats // local-fallback shards' own spill activity
	firstErr  error

	pushed        int64
	receivedSets  int64
	receivedBytes int64
	dispatchDur   time.Duration
	streamDur     time.Duration
	mergeDur      time.Duration
}

// fail records the first fatal error and cancels sibling shards.
func (r *shardRun) fail(err error) {
	r.mu.Lock()
	first := r.firstErr == nil
	if first {
		r.firstErr = err
	}
	r.mu.Unlock()
	if first {
		r.cancel()
	}
}

func (r *shardRun) failed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.firstErr != nil
}

// runShard computes shard i: remotely if a worker can serve it, locally
// otherwise. Any remote failure — dispatch, mid-stream death, failed
// verification — falls back to the local sweep; only a local failure
// (or a shared-budget overrun) can fail the shard.
func (r *shardRun) runShard(ctx context.Context, i int, sh agree.Shard) {
	mode := "failed"
	span := obs.StartSpan(ctx, r.s.log, "shard",
		slog.Int("shard", i), slog.Int("couple_start", sh.Start), slog.Int("couple_end", sh.End))
	defer func() { span.End(slog.String("mode", mode)) }()
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	remoteErr := r.tryRemote(ctx, i, sh)
	if remoteErr == nil {
		r.mu.Lock()
		r.remote++
		r.mu.Unlock()
		mode = "remote"
		return
	}
	if guard.Governed(remoteErr) {
		// The budget is shared: adopting the stream overran it, so the
		// local fallback would only overrun further. Surface the
		// governed cutoff directly.
		r.fail(remoteErr)
		return
	}
	if ctx.Err() != nil && r.failed() {
		return // a sibling already failed the discovery
	}
	obs.Event(ctx, r.s.log, "shard falling back local",
		slog.Int("shard", i), slog.String("remote_error", remoteErr.Error()))
	r.computeLocal(ctx, sh, remoteErr)
	if !r.failed() {
		mode = "local"
	}
}

func (r *shardRun) tryRemote(ctx context.Context, i int, sh agree.Shard) error {
	if ferr := faultinject.Fire(faultinject.ShardDispatch); ferr != nil {
		return ferr
	}
	// Forward the discovery's request id on the dispatch (and on any
	// dataset push): the worker's middleware adopts it, so its log lines
	// join the coordinator's under one id.
	ctx = client.WithRequestID(ctx, obs.RequestID(ctx))
	cl := r.s.coord.clients[i%len(r.s.coord.clients)]
	req := wire.ShardRequest{
		Fingerprint:   r.fp,
		Algorithm:     r.algo,
		CoupleStart:   sh.Start,
		CoupleEnd:     sh.End,
		TotalCouples:  r.plan.Couples(),
		Workers:       r.p.workers,
		TimeoutMS:     int64(r.p.timeout / time.Millisecond),
		BudgetUnits:   r.p.units,
		MaxAgreeBytes: r.p.maxAgreeBytes,
	}
	t0 := time.Now()
	stream, err := cl.AgreeShard(ctx, req)
	if err != nil && errors.Is(err, client.ErrNotFound) {
		// This worker has never seen the dataset: push it through the
		// ordinary registration API (content-derived ids converge on
		// identical bytes) and dispatch once more.
		if perr := r.pushDataset(ctx, cl); perr != nil {
			return fmt.Errorf("pushing dataset: %w", perr)
		}
		stream, err = cl.AgreeShard(ctx, req)
	}
	if err != nil {
		return err
	}
	defer stream.Close()
	dispatchDur := time.Since(t0)
	if ferr := faultinject.Fire(faultinject.ShardStream); ferr != nil {
		return ferr
	}
	t1 := time.Now()
	cr := &countingReader{r: stream.Body}
	pr, err := r.sp.AdoptRun(cr, r.p.maxAgreeBytes)
	if err != nil {
		return err
	}
	if want, ok := stream.TrailerSets(); ok && want != pr.Sets() {
		pr.Discard()
		return fmt.Errorf("worker attested %d sets, stream carried %d", want, pr.Sets())
	}
	pr.Commit()
	streamDur := time.Since(t1)
	r.mu.Lock()
	r.receivedSets += pr.Sets()
	r.receivedBytes += cr.n
	r.dispatchDur += dispatchDur
	r.streamDur += streamDur
	r.mu.Unlock()
	return nil
}

// computeLocal is the last fallback rung: the shard's sweep under the
// coordinator's own budget. Its output joins the merge as an in-memory
// run, exactly like a worker-pool run of the single-node sweep.
func (r *shardRun) computeLocal(ctx context.Context, sh agree.Shard, cause error) {
	aopts := agree.Options{
		Workers:       r.p.workers,
		Budget:        r.budget,
		MaxAgreeBytes: r.p.maxAgreeBytes,
		SpillDir:      r.s.cfg.SpillDir,
	}
	var out []attrset.Set
	res, err := r.plan.ComputeShard(ctx, sh, r.variant, aopts, func(set attrset.Set) error {
		out = append(out, set)
		return nil
	})
	if res != nil {
		r.mu.Lock()
		r.spill.Add(res.Spill)
		r.mu.Unlock()
	}
	if err != nil {
		r.fail(fmt.Errorf("shard [%d,%d) local fallback (remote: %v): %w", sh.Start, sh.End, cause, err))
		return
	}
	r.mu.Lock()
	r.local++
	if len(out) > 0 {
		r.localRuns = append(r.localRuns, out)
	}
	r.mu.Unlock()
}

func (r *shardRun) pushDataset(ctx context.Context, cl *client.Client) error {
	csv, err := r.datasetCSV()
	if err != nil {
		return err
	}
	if _, err := cl.Register(ctx, r.d.info().Name, csv); err != nil {
		return err
	}
	r.mu.Lock()
	r.pushed++
	r.mu.Unlock()
	return nil
}

// datasetCSV renders the discovery's relation once, for pushing to
// workers that have never seen it — only on a cold fleet, never on the
// steady-state path.
func (r *shardRun) datasetCSV() ([]byte, error) {
	r.csvOnce.Do(func() {
		var buf bytes.Buffer
		if err := r.rel.WriteCSV(&buf); err != nil {
			r.csvErr = err
			return
		}
		r.csvData = buf.Bytes()
	})
	return r.csvData, r.csvErr
}

// flushStats folds the fan-out's counters into the server stats.
func (r *shardRun) flushStats() {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &r.s.stats
	st.mu.Lock()
	defer st.mu.Unlock()
	sh := &st.shard
	sh.Dispatched += int64(r.attempted)
	sh.Remote += int64(r.remote)
	sh.LocalFallbacks += int64(r.local)
	sh.DatasetsPushed += r.pushed
	sh.ReceivedSets += r.receivedSets
	sh.ReceivedBytes += r.receivedBytes
	sh.DispatchTotalMS += millis(r.dispatchDur)
	sh.StreamTotalMS += millis(r.streamDur)
	sh.MergeTotalMS += millis(r.mergeDur)
}

// countingReader counts stream bytes for the fan-out stats.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// errShardStale marks a fingerprint that matched at lookup but not at
// plan-build time — the dataset grew in between. The coordinator's
// reaction to the 409 is the local fallback.
var errShardStale = errors.New("dataset fingerprint changed")

// planCache caches shard plans by content fingerprint, with
// singleflight builds so concurrent shards of one discovery share one
// couple-list generation. FIFO eviction; stale fingerprints age out. A
// failed build is not cached: its entry is dropped, so the next get for
// that fingerprint (say, once the same content is re-registered after
// an errShardStale) builds afresh.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*planEntry
	order   []string
}

type planEntry struct {
	once sync.Once
	plan *agree.Plan
	err  error
}

func newPlanCache(capEntries int) *planCache {
	return &planCache{cap: capEntries, entries: make(map[string]*planEntry)}
}

func (pc *planCache) get(fp string, build func() (*agree.Plan, error)) (*agree.Plan, error) {
	pc.mu.Lock()
	e, ok := pc.entries[fp]
	if !ok {
		e = &planEntry{}
		pc.entries[fp] = e
		pc.order = append(pc.order, fp)
		for pc.cap > 0 && len(pc.order) > pc.cap {
			delete(pc.entries, pc.order[0])
			pc.order = pc.order[1:]
		}
	}
	pc.mu.Unlock()
	e.once.Do(func() {
		if e.plan, e.err = build(); e.err == nil {
			return
		}
		pc.mu.Lock()
		if pc.entries[fp] == e {
			delete(pc.entries, fp)
			pc.order = slices.DeleteFunc(pc.order, func(k string) bool { return k == fp })
		}
		pc.mu.Unlock()
	})
	return e.plan, e.err
}

func (s *Server) noteShardServedError() {
	s.stats.mu.Lock()
	s.stats.shard.ServedErrors++
	s.stats.mu.Unlock()
}

// handleShardAgree implements POST /v1/shard/agree — the worker half of
// distributed discovery. The response is not JSON: it is a DMRUN1 run
// stream with the record count attested in an HTTP trailer. An error
// after the first streamed byte aborts the connection
// (http.ErrAbortHandler) rather than fabricating a valid-looking tail;
// the coordinator's CRC, order, and trailer checks make any truncation
// non-silent either way.
func (s *Server) handleShardAgree(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	var req wire.ShardRequest
	if err := wire.DecodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var variant agree.Variant
	switch strings.ToLower(strings.TrimSpace(req.Algorithm)) {
	case "", "depminer":
		variant = agree.VariantCouples
	case "depminer2":
		variant = agree.VariantIdentifiers
	default:
		writeError(w, http.StatusBadRequest, "algorithm %q cannot be sharded", req.Algorithm)
		return
	}
	if req.Fingerprint == "" {
		writeError(w, http.StatusBadRequest, "missing fingerprint")
		return
	}
	if req.CoupleStart < 0 || req.CoupleEnd < req.CoupleStart || req.CoupleEnd > req.TotalCouples ||
		req.Workers < 0 || req.TimeoutMS < 0 || req.BudgetUnits < 0 || req.MaxAgreeBytes < 0 {
		writeError(w, http.StatusBadRequest, "bad shard range or negative knobs")
		return
	}
	d, ok := s.reg.findByFingerprint(req.Fingerprint)
	if !ok {
		writeError(w, http.StatusNotFound, "no dataset with fingerprint %s", req.Fingerprint)
		return
	}
	if !s.jobs.tryAdmit() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		writeError(w, http.StatusTooManyRequests,
			"job queue full: %d discoveries running (cap %d)", s.cfg.MaxJobs, s.cfg.MaxJobs)
		return
	}
	s.wg.Add(1)
	defer s.wg.Done()
	defer s.jobs.release()

	plan, err := s.plans.get(req.Fingerprint, func() (*agree.Plan, error) {
		rel, fp := d.snapshot()
		if fp != req.Fingerprint {
			return nil, errShardStale
		}
		return agree.NewPlan(partition.NewDatabase(rel)), nil
	})
	if err != nil {
		s.noteShardServedError()
		if errors.Is(err, errShardStale) {
			writeError(w, http.StatusConflict, "dataset content changed since the coordinator planned")
			return
		}
		writeError(w, classifyStatus(err), "building shard plan: %v", err)
		return
	}
	// A couple-count disagreement is a structural proof the two sides
	// planned against different bytes; refuse rather than compute a
	// range with a different meaning.
	if plan.Couples() != req.TotalCouples {
		s.noteShardServedError()
		writeError(w, http.StatusConflict,
			"couple count mismatch: worker has %d, coordinator planned %d", plan.Couples(), req.TotalCouples)
		return
	}

	// The worker charges its own shard's couples, the worker-side
	// analogue of the coordinator's single upfront charge.
	p := discoverParams{workers: req.Workers, units: req.BudgetUnits, maxAgreeBytes: req.MaxAgreeBytes}
	s.clamp(&p, req.TimeoutMS)
	budget := guard.WithTimeout(p.timeout, p.units)
	if cerr := budget.Charge("agree", req.CoupleEnd-req.CoupleStart); cerr != nil {
		s.noteShardServedError()
		writeError(w, classifyStatus(cerr), "shard budget: %v", cerr)
		return
	}

	w.Header().Set("Content-Type", wire.RunContentType)
	w.Header().Set("Trailer", wire.ShardSetsTrailer)
	rw := extsort.NewRunWriter(w)
	res, cerr := plan.ComputeShard(r.Context(),
		agree.Shard{Start: req.CoupleStart, End: req.CoupleEnd}, variant,
		agree.Options{
			Workers:       p.workers,
			Budget:        budget,
			MaxAgreeBytes: p.maxAgreeBytes,
			SpillDir:      s.cfg.SpillDir,
		}, rw.Write)
	if cerr == nil {
		cerr = rw.Close()
	}
	if res != nil {
		s.stats.mu.Lock()
		s.stats.spill.Add(res.Spill)
		s.stats.mu.Unlock()
	}
	if cerr != nil {
		s.noteShardServedError()
		if !rw.Started() {
			writeError(w, classifyStatus(cerr), "shard failed: %v", cerr)
			return
		}
		// Mid-stream failure: kill the connection rather than let a
		// truncated stream end with a clean-looking terminal chunk.
		panic(http.ErrAbortHandler)
	}
	w.Header().Set(wire.ShardSetsTrailer, strconv.FormatInt(res.Sets, 10))
	s.stats.mu.Lock()
	s.stats.shard.Served++
	s.stats.shard.ServedSets += res.Sets
	s.stats.mu.Unlock()
	// The context carries the coordinator's request id (adopted by the
	// middleware from the dispatch header), so this line joins the
	// coordinator's fan-out lines.
	obs.Event(r.Context(), s.log, "shard served",
		slog.String("fingerprint", req.Fingerprint),
		slog.Int("couple_start", req.CoupleStart),
		slog.Int("couple_end", req.CoupleEnd),
		slog.Int64("sets", res.Sets))
}
