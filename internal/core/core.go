// Package core implements the Dep-Miner pipeline (paper Algorithm 1): the
// combined discovery of minimal non-trivial functional dependencies and a
// real-world Armstrong relation from a relation instance.
//
// The five steps, each delegated to its substrate package:
//
//  1. AGREE_SET          — internal/agree (Algorithm 2 or 3)
//  2. CMAX_SET           — internal/maxsets (Algorithm 4)
//  3. LEFT_HAND_SIDE     — internal/hypergraph (Algorithm 5)
//  4. FD_OUTPUT          — Algorithm 6, below
//  5. ARMSTRONG_RELATION — internal/armstrong (§4)
//
// The pipeline consumes only the stripped partition database after step 1
// has been prepared, and touches the original relation again only to
// materialise real-world Armstrong values — matching the paper's
// limited-main-memory design.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/agree"
	"repro/internal/armstrong"
	"repro/internal/attrset"
	"repro/internal/extsort"
	"repro/internal/faultinject"
	"repro/internal/fd"
	"repro/internal/guard"
	"repro/internal/hypergraph"
	"repro/internal/maxsets"
	"repro/internal/partition"
	"repro/internal/relation"
)

// AgreeAlgorithm selects how agree sets are computed.
type AgreeAlgorithm int

const (
	// AgreeCouples is Algorithm 2 (the "Dep-Miner" variant of the
	// evaluation): couples of maximal equivalence classes swept against
	// the stripped partitions, chunked to bound memory.
	AgreeCouples AgreeAlgorithm = iota
	// AgreeIdentifiers is Algorithm 3 ("Dep-Miner 2"): per-tuple
	// equivalence-class identifier lists intersected per couple.
	AgreeIdentifiers
	// AgreeNaive is the O(n·p²) direct pairwise scan, for baselines and
	// tests only. It requires the relation itself (Discover, not
	// DiscoverFromDatabase).
	AgreeNaive
)

// String returns the evaluation's name for the algorithm.
func (a AgreeAlgorithm) String() string {
	switch a {
	case AgreeCouples:
		return "Dep-Miner"
	case AgreeIdentifiers:
		return "Dep-Miner 2"
	case AgreeNaive:
		return "naive"
	default:
		return fmt.Sprintf("AgreeAlgorithm(%d)", int(a))
	}
}

// ArmstrongMode selects step 5's behaviour.
type ArmstrongMode int

const (
	// ArmstrongRealWorldOrSynthetic builds a real-world Armstrong
	// relation, falling back to the synthetic integer construction when
	// Proposition 1 fails. This is the zero value so that default
	// options are safe on arbitrary data.
	ArmstrongRealWorldOrSynthetic ArmstrongMode = iota
	// ArmstrongRealWorld fails discovery if Proposition 1 does not hold.
	ArmstrongRealWorld
	// ArmstrongSynthetic always uses the integer construction.
	ArmstrongSynthetic
	// ArmstrongNone skips step 5.
	ArmstrongNone
)

// Options configure a discovery run. The zero value runs Algorithm 2 with
// the default chunk size, all cores, and builds a real-world Armstrong
// relation with synthetic fallback.
type Options struct {
	// Algorithm selects the agree-set computation.
	Algorithm AgreeAlgorithm
	// ChunkSize bounds couples in memory for AgreeCouples; 0 means
	// agree.DefaultChunkSize.
	ChunkSize int
	// Armstrong selects step 5's behaviour.
	Armstrong ArmstrongMode
	// Workers is the worker-pool width of the parallel pipeline phases
	// (the agree-set couple sweep of step 1 and the per-attribute
	// transversal searches of steps 3–4): 0 means runtime.GOMAXPROCS(0),
	// 1 the sequential reference path. Output is byte-identical for
	// every value — parallelism only changes scheduling, never results.
	// The naive agree-set baseline ignores it and stays sequential.
	Workers int
	// MaxCouples is the graceful-degradation threshold for AgreeCouples:
	// when Algorithm 2's couple space exceeds it, Discover falls back to
	// AgreeIdentifiers (Algorithm 3 — the paper's own remedy for the
	// correlated-relation blow-up of §5.2) before any sweep work, and
	// records the switch in Result.Notes. 0 disables degradation.
	MaxCouples int
	// Budget governs the run: a wall-clock deadline plus a size budget
	// charged in each phase's own units (couples enumerated, agree sets
	// produced, transversal frontier width). Overruns return a
	// guard.Error wrapping guard.ErrBudget or guard.ErrDeadline and the
	// phase name, together with the partial Result accumulated so far
	// (Result.Partial = true). nil means ungoverned.
	Budget *guard.Budget
	// MaxAgreeBytes bounds the agree sets held in memory during step 1:
	// beyond it, per-worker sorted runs spill to checksummed files and the
	// final dedup becomes a streaming k-way merge (internal/extsort). The
	// cover is byte-identical for every threshold; Result.Stats.Spill
	// reports the traffic. 0 means never spill.
	MaxAgreeBytes int64
	// SpillDir is where agree-set spill files go ("" = the OS temp dir).
	SpillDir string
}

// ErrInvalidOptions is wrapped by every Options validation failure, so
// callers can classify bad configuration apart from runtime failures. It
// is the shared guard sentinel: the TANE and keys Options use the same
// one, so one errors.Is test covers every miner.
var ErrInvalidOptions = guard.ErrInvalidOptions

// Validate rejects nonsensical configurations up front — negative knob
// values and out-of-range enums — so they fail with a typed error at the
// API boundary instead of surfacing as obscure behaviour (or a silent
// default) deep inside a phase.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("%w: negative Workers %d", ErrInvalidOptions, o.Workers)
	}
	if o.ChunkSize < 0 {
		return fmt.Errorf("%w: negative ChunkSize %d", ErrInvalidOptions, o.ChunkSize)
	}
	if o.MaxCouples < 0 {
		return fmt.Errorf("%w: negative MaxCouples %d", ErrInvalidOptions, o.MaxCouples)
	}
	if o.MaxAgreeBytes < 0 {
		return fmt.Errorf("%w: negative MaxAgreeBytes %d", ErrInvalidOptions, o.MaxAgreeBytes)
	}
	switch o.Algorithm {
	case AgreeCouples, AgreeIdentifiers, AgreeNaive:
	default:
		return fmt.Errorf("%w: unknown agree algorithm %d", ErrInvalidOptions, int(o.Algorithm))
	}
	switch o.Armstrong {
	case ArmstrongRealWorldOrSynthetic, ArmstrongRealWorld, ArmstrongSynthetic, ArmstrongNone:
	default:
		return fmt.Errorf("%w: unknown armstrong mode %d", ErrInvalidOptions, int(o.Armstrong))
	}
	return nil
}

// PhaseStat records one pipeline phase's wall-clock duration.
// Allocation counts per phase come from the b.ReportAllocs benchmarks
// (hotpath_bench_test.go), not from here: process-wide heap counters
// cannot tell concurrent discoveries apart.
type PhaseStat struct {
	Duration time.Duration
}

// Stats holds per-phase wall times, letting the benchmark harness, the
// CLI's -stats line and depminerd's phase metrics attribute time to
// pipeline steps without an external profiler.
type Stats struct {
	Partition PhaseStat // stripped partition database extraction
	AgreeSets PhaseStat // step 1
	MaxSets   PhaseStat // step 2
	LHS       PhaseStat // steps 3–4
	Armstrong PhaseStat // step 5
	// Spill counts step 1's out-of-core traffic (runs spilled, bytes
	// written, blocks read back) when Options.MaxAgreeBytes is set;
	// all-zero for in-memory runs.
	Spill extsort.Stats
}

// Phase is one named pipeline phase's wall time.
type Phase struct {
	Name     string
	Duration time.Duration
}

// Phases lists the pipeline phases in pipeline order, under the names
// depminerd's phase metrics and logs key on.
func (s Stats) Phases() []Phase {
	return []Phase{
		{"partition", s.Partition.Duration},
		{"agree_sets", s.AgreeSets.Duration},
		{"max_sets", s.MaxSets.Duration},
		{"lhs", s.LHS.Duration},
		{"armstrong", s.Armstrong.Duration},
	}
}

// Result is the outcome of a Dep-Miner run.
type Result struct {
	// FDs is the canonical cover: every minimal non-trivial FD X → A of
	// the relation, in deterministic order. An FD with empty LHS denotes
	// a constant column (∅ → A).
	FDs fd.Cover
	// AgreeSets is ag(r), deduplicated, in canonical order.
	AgreeSets attrset.Family
	// MaxSets is MAX(dep(r)) = GEN(dep(r)).
	MaxSets attrset.Family
	// LHS[a] is lhs(dep(r), a) including the trivial {a} when present,
	// exactly as Algorithm 5 computes it.
	LHS []attrset.Family
	// Armstrong is the Armstrong relation, nil when Options.Armstrong is
	// ArmstrongNone.
	Armstrong *relation.Relation
	// ArmstrongSynthetic reports that the synthetic construction was
	// used (always, or as fallback).
	ArmstrongSynthetic bool
	// Couples is the number of tuple couples examined by step 1; Chunks
	// the number of chunk passes.
	Couples, Chunks int
	// Stats records per-step wall times, for cost attribution without an
	// external profiler.
	Stats Stats
	// Partial reports that the run stopped early — budget or deadline
	// overrun, or a contained panic — and the Result holds only the
	// phases completed before the cutoff. A partial Result is always
	// accompanied by a non-nil error wrapping guard.ErrBudget,
	// guard.ErrDeadline, or guard.ErrPanic.
	Partial bool
	// Notes records run-time adaptations, e.g. the Algorithm 2 → 3
	// graceful degradation when the couple space crosses
	// Options.MaxCouples (see AgreeVariant).
	Notes []string
}

// fail classifies a phase error. Governed outcomes — budget or deadline
// overruns and contained panics — keep the phases completed so far: res
// is returned with Partial set alongside the error, honouring the
// partial-result contract. Cancellations and ordinary failures discard
// the result, as before.
func fail(res *Result, err error) (*Result, error) {
	if guard.Governed(err) {
		res.Partial = true
		return res, err
	}
	return nil, err
}

// contain converts a panic escaping a pipeline boundary into a
// *guard.PanicError, marking the result partial. It must be deferred
// directly.
func contain(phase string, res *Result, errp *error) {
	if p := recover(); p != nil {
		res.Partial = true
		*errp = guard.NewPanicError(phase, p)
	}
}

// Discover runs the full Dep-Miner pipeline on a relation.
func Discover(ctx context.Context, r *relation.Relation, opts Options) (*Result, error) {
	return discover(ctx, "core.Discover", source{rel: r}, opts)
}

// DiscoverFromDatabase runs steps 1–4 on a pre-built stripped partition
// database (no Armstrong relation, which needs the original values).
func DiscoverFromDatabase(ctx context.Context, db *partition.Database, opts Options) (*Result, error) {
	if opts.Algorithm == AgreeNaive {
		return nil, fmt.Errorf("%w: the naive agree-set scan needs the relation; use Discover", ErrInvalidOptions)
	}
	return discover(ctx, "core.DiscoverFromDatabase", source{db: db}, opts)
}

// DiscoverFromAgreeSets runs steps 2–5 of the pipeline on an externally
// computed (complete, canonical) ag(r) — the coordinator's tail of a
// sharded discovery, after the workers' runs have been merged and
// finished. r supplies the values for the Armstrong relation and may be
// nil when opts.Armstrong is ArmstrongNone. The agree-set counters in
// res (Couples, Chunks, Spill) are left to the caller, who knows how the
// family was actually produced.
func DiscoverFromAgreeSets(ctx context.Context, r *relation.Relation, sets attrset.Family, arity int, opts Options) (*Result, error) {
	if opts.Armstrong != ArmstrongNone && r == nil {
		return nil, fmt.Errorf("%w: the Armstrong relation needs the original values", ErrInvalidOptions)
	}
	return discover(ctx, "core.DiscoverFromAgreeSets",
		source{rel: r, agree: &agree.Result{Sets: sets, Chunks: 1}, arity: arity}, opts)
}

// DeriveFromAgreeSets runs steps 2–4 of the pipeline on externally
// computed agree sets — used by the incremental miner, which maintains
// ag(r) under inserts and re-derives the cover on demand. It runs the
// sequential reference path: the cost is independent of |r| and too
// small to benefit from fan-out.
func DeriveFromAgreeSets(ctx context.Context, sets attrset.Family, arity int) (*Result, error) {
	return discover(ctx, "core.DeriveFromAgreeSets",
		source{agree: &agree.Result{Sets: sets, Chunks: 1}, arity: arity},
		Options{Workers: 1, Armstrong: ArmstrongNone})
}

// source is what a discovery starts from. Step 1 runs on db, built from
// rel when nil, unless agree already holds ag(r) over arity attributes;
// step 5 runs only when rel supplies the original values.
type source struct {
	rel   *relation.Relation
	db    *partition.Database
	agree *agree.Result
	arity int
}

// discover is the one body of the pipeline behind every entry point:
// step 1 (unless the source carries the agree sets), steps 2–4, and
// step 5 when the source has a relation and opts asks for one.
func discover(ctx context.Context, name string, in source, opts Options) (res *Result, err error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	res = &Result{}
	defer contain(name, res, &err)

	// Step 1: AGREE_SET.
	agr := in.agree
	if agr == nil {
		if in.db != nil {
			in.arity = in.db.Arity()
		} else {
			in.arity = in.rel.Arity()
		}
		agr, err = agreeSets(ctx, in, opts, res)
	}
	adoptAgree(res, agr)
	if err != nil {
		return fail(res, err)
	}

	// Steps 2–4.
	if err := deriveFDs(ctx, in.arity, opts, res); err != nil {
		return fail(res, err)
	}

	// Step 5: ARMSTRONG_RELATION.
	if opts.Armstrong == ArmstrongNone || in.rel == nil {
		return res, nil
	}
	if ferr := faultinject.Fire(faultinject.CoreArmstrong); ferr != nil {
		return fail(res, ferr)
	}
	if cerr := opts.Budget.Checkpoint("armstrong"); cerr != nil {
		return fail(res, cerr)
	}
	t0 := time.Now()
	arm, synthetic, aerr := buildArmstrong(in.rel, res.MaxSets, opts.Armstrong)
	if aerr != nil {
		return fail(res, aerr)
	}
	res.Armstrong = arm
	res.ArmstrongSynthetic = synthetic
	res.Stats.Armstrong.Duration = time.Since(t0)
	return res, nil
}

// AgreeVariant is the one Algorithm 2 → 3 degradation decision, made
// from the couple count of the discovery's agree.Plan before any sweep
// work: AgreeIdentifiers always runs Algorithm 3; AgreeCouples runs
// Algorithm 2 unless the couple space exceeds opts.MaxCouples, in which
// case it degrades to Algorithm 3 — the paper's own remedy for the
// correlated-relation blow-up of §5.2 — and note is the line to record
// in Result.Notes. Single-node runs and the shard coordinator both call
// it, so sharded and single-node responses degrade, and say so, byte for
// byte alike.
func AgreeVariant(opts Options, couples int) (v agree.Variant, note string) {
	if opts.Algorithm == AgreeIdentifiers {
		return agree.VariantIdentifiers, ""
	}
	if opts.MaxCouples > 0 && couples > opts.MaxCouples {
		return agree.VariantIdentifiers, fmt.Sprintf(
			"agree: degraded from Dep-Miner (Algorithm 2) to Dep-Miner 2 (Algorithm 3): %d couples exceed the %d-couple threshold",
			couples, opts.MaxCouples)
	}
	return agree.VariantCouples, ""
}

// adoptAgree copies step 1's outcome into res — on failure whatever it
// accumulated, so a governed overrun mid-sweep still reports the couples
// examined and the (partial) agree sets collected.
func adoptAgree(res *Result, agr *agree.Result) {
	if agr == nil {
		return
	}
	res.AgreeSets = agr.Sets
	res.Couples = agr.Couples
	res.Chunks = agr.Chunks
	res.Stats.Spill = agr.Spill
}

// agreeSets runs step 1: the naive scan on the relation, or one
// agree.Plan over the stripped partition database (built here, as the
// timed partition phase, unless the source supplies it) swept with the
// variant AgreeVariant picks.
func agreeSets(ctx context.Context, in source, opts Options, res *Result) (*agree.Result, error) {
	t0 := time.Now()
	db := in.db
	if opts.Algorithm != AgreeNaive && db == nil {
		if ferr := faultinject.Fire(faultinject.CorePartition); ferr != nil {
			return nil, ferr
		}
		db = partition.NewDatabase(in.rel)
		res.Stats.Partition.Duration = time.Since(t0)
		if cerr := opts.Budget.Checkpoint("partition"); cerr != nil {
			return nil, cerr
		}
		t0 = time.Now()
	}
	if ferr := faultinject.Fire(faultinject.CoreAgree); ferr != nil {
		return nil, ferr
	}
	var agr *agree.Result
	var err error
	if opts.Algorithm == AgreeNaive {
		agr, err = agree.Naive(ctx, in.rel)
	} else {
		plan := agree.NewPlan(db)
		v, note := AgreeVariant(opts, plan.Couples())
		if note != "" {
			res.Notes = append(res.Notes, note)
		}
		agr, err = plan.Compute(ctx, v, agree.Options{
			ChunkSize:     opts.ChunkSize,
			Workers:       opts.Workers,
			Budget:        opts.Budget,
			MaxAgreeBytes: opts.MaxAgreeBytes,
			SpillDir:      opts.SpillDir,
		})
	}
	if err == nil {
		res.Stats.AgreeSets.Duration = time.Since(t0)
	}
	return agr, err
}

// deriveFDs runs steps 2–4 from res.AgreeSets into res.
func deriveFDs(ctx context.Context, arity int, opts Options, res *Result) error {
	// Step 2: CMAX_SET.
	if ferr := faultinject.Fire(faultinject.CoreMaxSets); ferr != nil {
		return ferr
	}
	if cerr := opts.Budget.Checkpoint("maxsets"); cerr != nil {
		return cerr
	}
	t0 := time.Now()
	ms := maxsets.Compute(res.AgreeSets, arity)
	res.MaxSets = ms.AllMax()
	res.Stats.MaxSets.Duration = time.Since(t0)

	// Steps 3–4: LEFT_HAND_SIDE then FD_OUTPUT. The per-attribute searches
	// Tr(cmax(dep(r),A)) are independent, so they fan out one task per RHS
	// attribute (paper Fig. 1 step 4); FDs are then emitted from the
	// index-ordered results, keeping the output canonical regardless of
	// which worker finished first.
	if ferr := faultinject.Fire(faultinject.CoreLHS); ferr != nil {
		return ferr
	}
	if cerr := opts.Budget.Checkpoint("lhs"); cerr != nil {
		return cerr
	}
	t0 = time.Now()
	hs := make([]*hypergraph.Hypergraph, arity)
	for a := 0; a < arity; a++ {
		hs[a] = hypergraph.Simplify(ms.CMax[a])
	}
	lhs, err := hypergraph.TransversalsAll(ctx, hs, opts.Workers, opts.Budget)
	if err != nil {
		return err
	}
	res.LHS = lhs
	for a := 0; a < arity; a++ {
		for _, x := range lhs[a] {
			if x == attrset.Single(a) {
				continue
			}
			res.FDs = append(res.FDs, fd.FD{LHS: x, RHS: a})
		}
	}
	res.FDs.Sort()
	res.Stats.LHS.Duration = time.Since(t0)
	return nil
}

// buildArmstrong implements step 5 with the configured fallback policy.
func buildArmstrong(r *relation.Relation, maxSets attrset.Family, mode ArmstrongMode) (*relation.Relation, bool, error) {
	switch mode {
	case ArmstrongSynthetic:
		arm, err := armstrong.Synthetic(maxSets, r.Names())
		return arm, true, err
	case ArmstrongRealWorld:
		arm, err := armstrong.RealWorld(r, maxSets)
		return arm, false, err
	case ArmstrongRealWorldOrSynthetic:
		arm, err := armstrong.RealWorld(r, maxSets)
		if err == nil {
			return arm, false, nil
		}
		arm, err = armstrong.Synthetic(maxSets, r.Names())
		return arm, true, err
	default:
		return nil, false, fmt.Errorf("core: unknown armstrong mode %d", mode)
	}
}
