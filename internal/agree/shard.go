// Shard computation: the engine's sweep over an explicit couple range,
// the unit a distributed discovery dispatches to workers.
//
// A shard is a [Start,End) index range into the Plan's couple list. The
// list is generated once (sorted, deduplicated — generateCouples), so a
// range names the same couples on every node that builds the Plan from
// the same relation bytes; content fingerprints make "same bytes"
// verifiable. ComputeShard runs the same sweep as the single-node
// Compute, over its range only, and emits the deduplicated agree sets in
// raw word order (extsort.Compare) — the run order — without the
// canonical sort or the empty-set completion, which belong to whoever
// unions the shards. Finish applies exactly that tail once over the
// merged family. The single-node computation is the one-shard case:
// Compute is the sweep of [0, Couples()) followed by Finish.
//
// Byte-identity argument (the distributed analogue of the spill
// contract): the shards are contiguous ranges of one globally sorted
// deduplicated couple list, so their union examines exactly the couples
// the single-node sweep examines, each once; every shard's output is a
// sorted deduplicated run; the k-way dedup merge of sorted runs is
// insensitive to how its inputs were partitioned; and the one canonical
// sort plus empty-set completion then run once, identically. Where shard
// boundaries fall can therefore never change the merged family — and
// hence never the cover.
package agree

import (
	"context"
	"fmt"

	"repro/internal/attrset"
	"repro/internal/extsort"
)

// Shard is a half-open couple index range [Start, End) into the plan's
// couple list.
type Shard struct {
	Start, End int
}

// Split partitions the couple space into n contiguous near-equal shards
// (never more shards than couples; an empty couple space yields one
// empty shard, so the pipeline shape is uniform).
func (p *Plan) Split(n int) []Shard {
	total := len(p.couples)
	if n < 1 {
		n = 1
	}
	if total == 0 {
		return []Shard{{0, 0}}
	}
	if n > total {
		n = total
	}
	shards := make([]Shard, 0, n)
	for i := 0; i < n; i++ {
		shards = append(shards, Shard{Start: i * total / n, End: (i + 1) * total / n})
	}
	return shards
}

// ShardResult reports one shard computation.
type ShardResult struct {
	// Sets is the number of agree sets emitted.
	Sets int64
	// Spill counts the shard's own out-of-core activity (all-zero when the
	// shard's accumulation stayed in memory).
	Spill extsort.Stats
}

// ComputeShard sweeps the couples in sh and emits the shard's
// deduplicated agree sets in raw run order (strictly increasing
// extsort.Compare), sequentially from one goroutine. No canonical sort,
// no empty-set completion — see Finish.
//
// Budget contract: ComputeShard does not charge the couple count — the
// caller charges it (the coordinator once for the whole space, a worker
// per request), keeping governed totals identical to single-node runs.
// opts.Budget still governs the sweep's deadline checkpoints and any
// spill bytes.
//
// Errors: a sweep or spill failure is returned before anything is
// emitted, so stream producers can still send a clean error. Only a
// failure during the final merge read-back (or from emit itself) can
// surface after emission started.
func (p *Plan) ComputeShard(ctx context.Context, sh Shard, v Variant, opts Options, emit func(attrset.Set) error) (*ShardResult, error) {
	if sh.Start < 0 || sh.End < sh.Start || sh.End > len(p.couples) {
		return nil, fmt.Errorf("agree: shard [%d,%d) outside couple range [0,%d]", sh.Start, sh.End, len(p.couples))
	}
	res := &ShardResult{}
	locals, sp, err := p.sweep(ctx, p.couples[sh.Start:sh.End], v, opts)
	if sp != nil {
		defer func() {
			res.Spill = sp.Stats()
			sp.Close()
		}()
	}
	if err != nil {
		return res, fmt.Errorf("agree: shard [%d,%d) sweep: %w", sh.Start, sh.End, err)
	}

	counted := func(s attrset.Set) error {
		res.Sets++
		return emit(s)
	}
	runs, _ := workerRuns(locals)
	if sp != nil && sp.Runs() > 0 {
		if err := sp.Merge(runs, counted); err != nil {
			return res, fmt.Errorf("agree: shard [%d,%d) merge: %w", sh.Start, sh.End, err)
		}
		return res, nil
	}
	for _, s := range mergeRuns(runs) {
		if err := counted(s); err != nil {
			return res, err
		}
	}
	return res, nil
}

// Finish turns the raw-order union of the shards' emitted runs into the
// final ag(r): the one canonical sort plus the empty-set completion —
// the tail Compute applies to its own one-shard sweep, applied once by
// whoever merged the shards.
func (p *Plan) Finish(sets attrset.Family) attrset.Family {
	if sets == nil {
		sets = attrset.Family{}
	}
	sets.Sort()
	return addEmptyIfUncovered(p.db, len(p.couples), sets)
}
