package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	depminer "repro"
	"repro/internal/agree"
	"repro/internal/armstrong"
	"repro/internal/attrset"
	"repro/internal/durable"
	"repro/internal/fd"
	"repro/internal/hypergraph"
	"repro/internal/maxsets"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Traced runs time each layer from outside: the benchmark calls the
// layer's public function itself and records the call's duration as a
// span. Program code is not instrumented.

// span times f and adds the duration, in ms, to the population name.
func span(rec *recorder, name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	rec.add(name, ms(d))
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracedLayers are the per-layer populations traceLibrary reports as
// medians.
var tracedLayers = []string{
	"partition.build_ms", "partition.maximal_classes_ms", "partition.maximal_classes",
	"partition.stream_build_ms", "agree.plan_ms", "agree.couples", "agree.couples_ms",
	"agree.identifiers_ms", "agree.shard_sweep_ms", "agree.sets", "agree.sets_per_mcouple",
	"agree.couples_spill_ms", "extsort.runs_spilled", "extsort.spilled_bytes", "extsort.read_blocks",
	"maxsets.compute_ms", "maxsets.count", "hypergraph.simplify_ms", "hypergraph.transversals_ms",
	"hypergraph.transversals", "core.glue_ms", "core.fds", "armstrong.build_ms", "armstrong.synthetic",
	"tane.lattice_nodes", "pstore.hits", "pstore.misses", "pstore.peak_bytes",
	"stats.partition_ms", "stats.agree_sets_ms", "stats.max_sets_ms", "stats.lhs_ms", "stats.armstrong_ms",
}

// traceLibrary repeats traceOnce until the deadline (at least minIters
// times) and reports each layer's median, the traced pipeline's median
// wall time, and its overhead over the untraced Discover.
func traceLibrary(ctx context.Context, rec *recorder, e *libEnv, until time.Time, minIters int) {
	for i := 0; i < minIters || time.Now().Before(until); i++ {
		if err := traceOnce(ctx, rec, e); err != nil {
			rec.fail(err)
			return
		}
	}
	for _, name := range tracedLayers {
		rec.setQuantile(name, name, 0.5, 1)
	}
	rec.setQuantile("trace.depminer_s", "trace.depminer_s", 0.5, 1)
	traced, untraced := rec.samples["trace.depminer_s"], rec.samples["trace.untraced_s"]
	if len(traced) > 0 && len(untraced) > 0 {
		rec.set("trace.overhead_ms", (quantile(traced, 0.5)-quantile(untraced, 0.5))*1000, len(traced))
	}
}

// traceOnce runs Dep-Miner's pipeline once untraced (Discover) and once
// one layer call at a time in Discover's order, then the layer calls
// off that path: maximal classes, the couple plan, Algorithm 3, the
// shard sweep, the snapshot-streamed out-of-core agree phase, and TANE.
// Every intermediate result is checked against the untraced run's.
func traceOnce(ctx context.Context, rec *recorder, e *libEnv) error {
	rel := e.rel
	runtime.GC()
	t0 := time.Now()
	res, err := depminer.Discover(ctx, rel, depminer.Options{})
	untraced := time.Since(t0)
	rec.attempted++
	if err != nil {
		return fmt.Errorf("untraced discovery: %w", err)
	}
	rec.add("trace.untraced_s", untraced.Seconds())
	st := res.Stats
	rec.add("stats.partition_ms", ms(st.Partition.Duration))
	rec.add("stats.agree_sets_ms", ms(st.AgreeSets.Duration))
	rec.add("stats.max_sets_ms", ms(st.MaxSets.Duration))
	rec.add("stats.lhs_ms", ms(st.LHS.Duration))
	rec.add("stats.armstrong_ms", ms(st.Armstrong.Duration))

	// Discover's path, one layer at a time.
	runtime.GC()
	var (
		db   *partition.Database
		agr  *agree.Result
		ms2  *maxsets.Result
		hs   []*hypergraph.Hypergraph
		lhs  []attrset.Family
		arm  *relation.Relation
		synt bool
		errs []error
	)
	arity := rel.Arity()
	start := time.Now()
	layers := span(rec, "partition.build_ms", func() { db = partition.NewDatabase(rel) })
	layers += span(rec, "agree.couples_ms", func() {
		var err error
		agr, err = agree.Couples(ctx, db, agree.Options{})
		errs = append(errs, err)
	})
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("agree.Couples: %w", err)
	}
	layers += span(rec, "maxsets.compute_ms", func() { ms2 = maxsets.Compute(agr.Sets, arity) })
	layers += span(rec, "hypergraph.simplify_ms", func() {
		hs = make([]*hypergraph.Hypergraph, arity)
		for a := range arity {
			hs[a] = hypergraph.Simplify(ms2.CMax[a])
		}
	})
	layers += span(rec, "hypergraph.transversals_ms", func() {
		var err error
		lhs, err = hypergraph.TransversalsAll(ctx, hs, 0, nil)
		errs = append(errs, err)
	})
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("hypergraph.TransversalsAll: %w", err)
	}
	var cover fd.Cover
	for a := range arity {
		for _, x := range lhs[a] {
			if x != attrset.Single(a) {
				cover = append(cover, fd.FD{LHS: x, RHS: a})
			}
		}
	}
	cover.Sort()
	maxSets := ms2.AllMax()
	layers += span(rec, "armstrong.build_ms", func() {
		var err error
		arm, err = armstrong.RealWorld(rel, maxSets)
		var few *armstrong.ErrNotEnoughValues
		if errors.As(err, &few) {
			arm, err = armstrong.Synthetic(maxSets, rel.Names())
			synt = true
		}
		errs = append(errs, err)
	})
	rec.add("trace.depminer_s", time.Since(start).Seconds())
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("armstrong: %w", err)
	}
	rec.add("core.glue_ms", ms(untraced-layers))
	if !slices.Equal(cover, res.FDs) || !slices.Equal(agr.Sets, res.AgreeSets) || !sameRelation(arm, res.Armstrong) {
		return fmt.Errorf("%w: layer-by-layer pipeline differs from Discover", errMismatch)
	}
	transversals := 0
	for _, f := range lhs {
		transversals += len(f)
	}
	rec.add("agree.sets", float64(len(agr.Sets)))
	rec.add("maxsets.count", float64(len(maxSets)))
	rec.add("hypergraph.transversals", float64(transversals))
	rec.add("core.fds", float64(len(cover)))
	if synt {
		rec.add("armstrong.synthetic", 1)
	} else {
		rec.add("armstrong.synthetic", 0)
	}

	// Layer calls off Discover's default path.
	var mc [][]int
	span(rec, "partition.maximal_classes_ms", func() { mc = db.MaximalClasses() })
	rec.add("partition.maximal_classes", float64(len(mc)))
	var plan *agree.Plan
	span(rec, "agree.plan_ms", func() { plan = agree.NewPlan(db) })
	rec.add("agree.couples", float64(plan.Couples()))
	if plan.Couples() > 0 {
		rec.add("agree.sets_per_mcouple", float64(len(agr.Sets))/float64(plan.Couples())*1e6)
	}
	var ids *agree.Result
	span(rec, "agree.identifiers_ms", func() {
		var err error
		ids, err = agree.Identifiers(ctx, db, agree.Options{})
		errs = append(errs, err)
	})
	var swept attrset.Family
	span(rec, "agree.shard_sweep_ms", func() {
		var raw attrset.Family
		for _, sh := range plan.Split(1) {
			_, err := plan.ComputeShard(ctx, sh, agree.VariantCouples, agree.Options{}, func(s attrset.Set) error {
				raw = append(raw, s)
				return nil
			})
			errs = append(errs, err)
		}
		swept = plan.Finish(raw)
	})
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("agree layer: %w", err)
	}
	if !slices.Equal(ids.Sets, agr.Sets) || !slices.Equal(swept, agr.Sets) {
		return fmt.Errorf("%w: Algorithm 3 or the shard sweep differs from Algorithm 2", errMismatch)
	}

	// The out-of-core agree phase on the snapshot-streamed database.
	var sdb *partition.Database
	span(rec, "partition.stream_build_ms", func() {
		sr, err := durable.OpenSnapshotStream(e.snap)
		if err == nil {
			sdb, err = partition.NewDatabaseFromSource(sr)
			errs = append(errs, sr.Close())
		}
		errs = append(errs, err)
	})
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("snapshot stream: %w", err)
	}
	var spilled *agree.Result
	span(rec, "agree.couples_spill_ms", func() {
		o := oocOptions(e.spill)
		var err error
		spilled, err = agree.Couples(ctx, sdb, agree.Options{MaxAgreeBytes: o.MaxAgreeBytes, ChunkSize: o.ChunkSize, SpillDir: o.SpillDir})
		errs = append(errs, err)
	})
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("out-of-core agree.Couples: %w", err)
	}
	if !slices.Equal(spilled.Sets, agr.Sets) {
		return fmt.Errorf("%w: out-of-core agree sets differ", errMismatch)
	}
	rec.add("extsort.runs_spilled", float64(spilled.Spill.RunsSpilled))
	rec.add("extsort.spilled_bytes", float64(spilled.Spill.SpilledBytes))
	rec.add("extsort.read_blocks", float64(spilled.Spill.ReadBlocks))

	tres, err := depminer.DiscoverTANE(ctx, rel, depminer.TANEOptions{})
	if err != nil {
		return fmt.Errorf("TANE: %w", err)
	}
	if !slices.Equal(tres.FDs, res.FDs) {
		return fmt.Errorf("%w: TANE cover differs", errMismatch)
	}
	rec.add("tane.lattice_nodes", float64(tres.LatticeNodes))
	rec.add("pstore.hits", float64(tres.Stats.Hits))
	rec.add("pstore.misses", float64(tres.Stats.Misses))
	rec.add("pstore.peak_bytes", float64(tres.Stats.PeakBytes))
	return nil
}
