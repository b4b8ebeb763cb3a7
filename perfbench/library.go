package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	depminer "repro"
	"repro/internal/datagen"
	"repro/internal/durable"
	"repro/internal/extsort"
	"repro/internal/relation"
)

// libEnv is the prepared input of a tall or wide run.
type libEnv struct {
	rel *relation.Relation
	// snap is a DMSNAP1 snapshot of rel, spill the directory the
	// out-of-core runs spill to.
	snap, spill string
	// ref and arm are the warm-up Dep-Miner cover and Armstrong
	// relation every timed discovery must reproduce.
	ref depminer.Cover
	arm *relation.Relation
}

// setupLibrary generates the relation, writes its snapshot and runs one
// warm-up discovery whose output becomes the reference.
func setupLibrary(ctx context.Context, spec datagen.Spec, dir string) (*libEnv, error) {
	rel, err := depminer.Generate(spec)
	if err != nil {
		return nil, err
	}
	snap, err := writeSnapshot(filepath.Join(dir, "store"), rel)
	if err != nil {
		return nil, err
	}
	spill := filepath.Join(dir, "spill")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return nil, err
	}
	res, err := depminer.Discover(ctx, rel, depminer.Options{})
	if err != nil {
		return nil, fmt.Errorf("warm-up discovery: %w", err)
	}
	return &libEnv{rel: rel, snap: snap, spill: spill, ref: res.FDs, arm: res.Armstrong}, nil
}

// writeSnapshot stores rel as a durable dataset and folds it into a
// DMSNAP1 snapshot, returning the snapshot's path. Only WAL-appended
// rows give a dataset a tail to fold, so the rows are appended to an
// empty dataset before the compaction.
func writeSnapshot(dir string, rel *relation.Relation) (string, error) {
	rows := make([][]string, rel.Rows())
	for i := range rows {
		rows[i] = rel.Row(i)
	}
	store, _, err := durable.Open(durable.Options{Dir: dir, DisableFsync: true, SnapshotEvery: -1})
	if err != nil {
		return "", err
	}
	fp := durable.ContentFingerprint(rel.Names(), rows)
	ds, err := store.Create("bench", "bench", rel.Names(), nil, fp)
	if err == nil {
		var tok durable.Token
		if tok, err = ds.Append(rows, len(rows), fp); err == nil {
			err = ds.Sync(tok)
		}
	}
	if err == nil {
		err = store.CompactAll()
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing snapshot: %w", err)
	}
	return filepath.Join(dir, "datasets", "bench", "snapshot.snap"), nil
}

// oocOptions is the out-of-core configuration: one agree set per worker
// resident, small couple chunks, so the agree phase spills many runs.
func oocOptions(spill string) depminer.Options {
	return depminer.Options{MaxAgreeBytes: extsort.SetBytes, ChunkSize: 4096, SpillDir: spill}
}

// libOutput is what a timed library call produced, checked untimed.
type libOutput struct {
	fds     depminer.Cover
	arm     *relation.Relation
	spilled int64
}

// libOp is one timed discovery kind of the tall and wide workloads.
type libOp struct {
	metric string
	call   func(ctx context.Context, e *libEnv) (libOutput, error)
}

var libOps = []libOp{
	{"depminer_s", func(ctx context.Context, e *libEnv) (libOutput, error) {
		res, err := depminer.Discover(ctx, e.rel, depminer.Options{})
		if err != nil {
			return libOutput{}, err
		}
		return libOutput{fds: res.FDs, arm: res.Armstrong}, nil
	}},
	{"depminer2_s", func(ctx context.Context, e *libEnv) (libOutput, error) {
		res, err := depminer.Discover(ctx, e.rel, depminer.Options{Algorithm: depminer.DepMiner2})
		if err != nil {
			return libOutput{}, err
		}
		return libOutput{fds: res.FDs, arm: res.Armstrong}, nil
	}},
	{"tane_s", func(ctx context.Context, e *libEnv) (libOutput, error) {
		res, err := depminer.DiscoverTANE(ctx, e.rel, depminer.TANEOptions{})
		if err != nil {
			return libOutput{}, err
		}
		return libOutput{fds: res.FDs}, nil
	}},
	{"depminer_ooc_s", func(ctx context.Context, e *libEnv) (libOutput, error) {
		res, names, err := depminer.DiscoverFromSnapshot(ctx, e.snap, oocOptions(e.spill))
		if err != nil {
			return libOutput{}, err
		}
		if !slices.Equal(names, e.rel.Names()) {
			return libOutput{}, fmt.Errorf("snapshot names %v, want %v", names, e.rel.Names())
		}
		return libOutput{fds: res.FDs, spilled: res.Stats.Spill.RunsSpilled}, nil
	}},
}

// runLibOp times one call and checks its output against the reference:
// the same cover for every kind, the same Armstrong relation for the
// two Dep-Miner kinds, and actual spilling for the out-of-core kind.
// It returns the call's duration.
func runLibOp(ctx context.Context, rec *recorder, e *libEnv, op libOp) time.Duration {
	runtime.GC()
	t0 := time.Now()
	out, err := op.call(ctx, e)
	d := time.Since(t0)
	if err == nil {
		err = checkLibOutput(e, op.metric, out)
	}
	rec.op(op.metric, d, err)
	return d
}

func checkLibOutput(e *libEnv, metric string, out libOutput) error {
	if !slices.Equal(out.fds, e.ref) {
		return fmt.Errorf("%w: cover of %d FDs, want %d", errMismatch, len(out.fds), len(e.ref))
	}
	switch metric {
	case "depminer_s", "depminer2_s":
		if !sameRelation(out.arm, e.arm) {
			return fmt.Errorf("%w: Armstrong relation differs from the warm-up one", errMismatch)
		}
	case "depminer_ooc_s":
		if out.spilled == 0 {
			return fmt.Errorf("out-of-core run spilled nothing")
		}
	}
	return nil
}

// sameRelation reports whether a and b hold the same rows in order.
func sameRelation(a, b *relation.Relation) bool {
	if a == nil || b == nil || a.Rows() != b.Rows() || !slices.Equal(a.Names(), b.Names()) {
		return false
	}
	for i := range a.Rows() {
		if !slices.Equal(a.Row(i), b.Row(i)) {
			return false
		}
	}
	return true
}

// maxVerifiedFDs bounds how many FDs the Armstrong check tests one by
// one; wider covers are tested on an even stride. Verify scans the
// Armstrong relation once per FD, which on wide's ~900k FDs would take
// minutes.
const maxVerifiedFDs = 4096

// checkArmstrong gates the warm-up Armstrong relation: the cover's FDs
// hold in it (depminer.Verify), and discovery on it yields exactly the
// cover again, which is what makes it an Armstrong relation.
func checkArmstrong(ctx context.Context, e *libEnv) error {
	stride := max(1, (len(e.ref)+maxVerifiedFDs-1)/maxVerifiedFDs)
	var sample depminer.Cover
	for i := 0; i < len(e.ref); i += stride {
		sample = append(sample, e.ref[i])
	}
	if ok, f := depminer.Verify(e.arm, sample); !ok {
		return fmt.Errorf("%w: %v does not hold in the Armstrong relation", errMismatch, f)
	}
	res, err := depminer.Discover(ctx, e.arm, depminer.Options{Armstrong: depminer.ArmstrongNone})
	if err != nil {
		return fmt.Errorf("discovery on the Armstrong relation: %w", err)
	}
	if !slices.Equal(res.FDs, e.ref) {
		return fmt.Errorf("%w: the Armstrong relation has %d FDs, the relation %d", errMismatch, len(res.FDs), len(e.ref))
	}
	return nil
}

// runLibrary runs the tall or wide workload. Untraced, it times the four
// discovery kinds in turn until the run's time is up. Traced, it times
// the layers one call at a time instead, then serves a small relation
// of the same shape to report the server's layers.
func runLibrary(ctx context.Context, cfg config, rec *recorder, spec, probe datagen.Spec) error {
	rec.info["relation"] = spec.String()
	e, err := setupRepeated(rec, cfg.dir, func(dir string) (*libEnv, error) {
		return setupLibrary(ctx, spec, dir)
	}, func(*libEnv) {})
	if err != nil {
		return err
	}
	rec.info["fds"] = len(e.ref)
	if cfg.trace {
		traceLibrary(ctx, rec, e, time.Now().Add(cfg.seconds), 1)
		return traceServedProbe(ctx, cfg, rec, probe)
	}
	// The peak resident set is taken per iteration and reported as the
	// median: a single peak over the run depends on where the garbage
	// collector happened to run. Throughput counts the calls' own time,
	// not the collections forced between them.
	var busy time.Duration
	deadline := time.Now().Add(cfg.seconds)
	for first := true; first || time.Now().Before(deadline); first = false {
		rec.info["peak_rss_reset"] = resetPeakRSS()
		for _, op := range libOps {
			busy += runLibOp(ctx, rec, e, op)
		}
		samplePeakRSS(rec)
	}
	rec.setQuantile("peak_rss_mb", "peak_rss_mb", 0.5, 1)
	done := 0
	for _, op := range libOps {
		rec.setQuantile(op.metric, op.metric, 0.5, 1)
		done += len(rec.samples[op.metric])
	}
	rec.set("ops_per_s", float64(done)/busy.Seconds(), done)
	rec.check(checkArmstrong(ctx, e))
	return nil
}

// samplePeakRSS adds the peak resident set since the last reset (since
// process start where the kernel refuses resets) to peak_rss_mb.
func samplePeakRSS(rec *recorder) {
	mb, err := peakRSSMB()
	if err != nil {
		rec.check(fmt.Errorf("reading peak RSS: %w", err))
		return
	}
	rec.add("peak_rss_mb", mb)
}
