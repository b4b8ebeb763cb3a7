// Package incremental maintains functional-dependency discovery state
// under tuple insertions — the paper's closing research direction
// (maintaining discovered dependencies while the database evolves, §6).
//
// The key observation is that ag(r) is monotone under inserts: adding a
// tuple t only adds the agree sets ag(t, t') for existing tuples t'.
// Tuples that share no attribute value with t contribute the empty agree
// set, which is tracked by a counter instead of enumeration, so an insert
// costs O(candidates · |R|) where candidates are the tuples sharing at
// least one value with t — exactly the couples Dep-Miner's Lemma 1 would
// generate for t.
//
// Dependencies are re-derived on demand from the maintained agree-set
// family via the ordinary CMAX_SET → LEFT_HAND_SIDE steps (steps 2–4 of
// the pipeline), whose cost depends on |ag(r)| and |R| but not on |r|.
//
// Deletions are not supported: removing a tuple can invalidate agree sets
// non-monotonically, requiring a rebuild (call New again). This matches
// the dominant dba workload the paper targets — analysing growing data.
package incremental

import (
	"context"
	"fmt"

	"repro/internal/attrset"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fd"
	"repro/internal/guard"
	"repro/internal/relation"
)

// Miner maintains discovery state for a growing relation.
type Miner struct {
	// store holds the tuples, dictionary-encoded; Snapshot is its view.
	store *relation.Columns
	// buckets[a][code] lists tuple ids holding that code.
	buckets [][][]int
	// agree is the maintained ag(r) (excluding ∅, tracked separately).
	agree map[attrset.Set]struct{}
	// nonEmptyCouples counts couples with a non-empty agree set; when it
	// lags behind C(rows,2), some couple disagrees everywhere and
	// ∅ ∈ ag(r).
	nonEmptyCouples int
	// stamp dedups candidate tuples per insert.
	stamp   []int
	stampID int
}

// New creates an empty miner for the given schema.
func New(names []string) (*Miner, error) {
	store, err := relation.NewColumns(names)
	if err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	return fromColumns(context.Background(), store)
}

// FromRelation builds a miner pre-loaded with a relation's tuples.
func FromRelation(r *relation.Relation) (*Miner, error) {
	return FromRelationCtx(context.Background(), r)
}

// FromRelationCtx is FromRelation under a context: loading aborts
// mid-relation (and mid-scan within a tuple) when ctx is cancelled,
// returning an error wrapping guard.ErrDeadline. The miner grows r's
// own columns (relation.ColumnsOf) instead of re-encoding its values.
func FromRelationCtx(ctx context.Context, r *relation.Relation) (*Miner, error) {
	store, err := relation.ColumnsOf(r)
	if err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	return fromColumns(ctx, store)
}

// fromColumns builds a miner over store, folding each tuple it already
// holds into the buckets and ag(r) exactly as an insert would.
func fromColumns(ctx context.Context, store *relation.Columns) (*Miner, error) {
	m := &Miner{
		store:   store,
		buckets: make([][][]int, len(store.Names())),
		agree:   make(map[attrset.Set]struct{}),
	}
	codes := make([]int, len(store.Names()))
	for t := 0; t < store.Rows(); t++ {
		for a := range codes {
			codes[a] = store.Code(t, a)
		}
		staged, err := m.scan(ctx, t, codes)
		if err != nil {
			return nil, err
		}
		m.commit(t, codes, staged)
	}
	return m, nil
}

// Rows returns the number of inserted tuples.
func (m *Miner) Rows() int { return m.store.Rows() }

// Arity returns |R|.
func (m *Miner) Arity() int { return len(m.store.Names()) }

// Names returns the schema's attribute names.
func (m *Miner) Names() []string { return m.store.Names() }

// Insert adds one tuple and updates ag(r).
func (m *Miner) Insert(row []string) error {
	return m.InsertCtx(context.Background(), row)
}

// insertCheckStride is how many candidate couples are processed between
// context checks during an insert's agree-set scan. The scan is the
// O(candidates · |R|) heart of an insert, so on wide or hot-value
// relations it can run long past any deadline if only checked at entry.
const insertCheckStride = 256

// InsertCtx adds one tuple and updates ag(r), honouring ctx cancellation
// mid-scan: the candidate sweep checks ctx every insertCheckStride
// couples and aborts with an error wrapping the typed guard.ErrDeadline
// (not a bare ctx error), so governed callers classify the outcome with
// one errors.Is test. An aborted insert leaves the miner unchanged —
// the row's codes, including any new dictionary values, and its agree
// sets are staged and committed only after the scan completes — so the
// session stays consistent and the insert can be retried.
func (m *Miner) InsertCtx(ctx context.Context, row []string) error {
	codes, err := m.store.Encode(row)
	if err != nil {
		return fmt.Errorf("incremental: %w", err)
	}
	if err := insertCtxErr(ctx); err != nil {
		return err
	}
	t := m.store.Rows()
	staged, err := m.scan(ctx, t, codes)
	if err != nil {
		return err
	}
	if err := m.store.Append(row); err != nil {
		return fmt.Errorf("incremental: %w", err)
	}
	m.commit(t, codes, staged)
	return nil
}

// scan computes the agree sets of tuple t, whose codes are given, with
// every earlier tuple sharing at least one value with it — the couples
// Lemma 1 would generate for t. It reads the miner and changes nothing
// but the candidate stamps, so an abort commits nothing.
func (m *Miner) scan(ctx context.Context, t int, codes []int) ([]attrset.Set, error) {
	m.stampID++
	if len(m.stamp) < t {
		grown := make([]int, t*2+8)
		copy(grown, m.stamp)
		m.stamp = grown
	}
	var candidates []int
	for a, code := range codes {
		if code >= len(m.buckets[a]) {
			continue // a value no earlier tuple holds
		}
		for _, u := range m.buckets[a][code] {
			if m.stamp[u] != m.stampID {
				m.stamp[u] = m.stampID
				candidates = append(candidates, u)
			}
		}
	}
	staged := make([]attrset.Set, 0, len(candidates))
	for i, u := range candidates {
		if i%insertCheckStride == 0 {
			if err := insertCtxErr(ctx); err != nil {
				return nil, err
			}
			if err := faultinject.Fire(faultinject.IncrementalInsert); err != nil {
				return nil, err
			}
		}
		var s attrset.Set
		for a, code := range codes {
			if m.store.Code(u, a) == code {
				s.Add(a)
			}
		}
		staged = append(staged, s)
	}
	// Last abort point before the caller commits.
	if err := faultinject.Fire(faultinject.IncrementalInsert); err != nil {
		return nil, err
	}
	return staged, nil
}

// commit folds tuple t's staged agree sets into ag(r) and t into the
// value buckets.
func (m *Miner) commit(t int, codes []int, staged []attrset.Set) {
	for _, s := range staged {
		m.agree[s] = struct{}{}
	}
	m.nonEmptyCouples += len(staged)
	for a, code := range codes {
		for code >= len(m.buckets[a]) {
			m.buckets[a] = append(m.buckets[a], nil)
		}
		m.buckets[a][code] = append(m.buckets[a][code], t)
	}
}

// insertCtxErr translates a cancelled or expired context into the typed
// guard.ErrDeadline sentinel, preserving the underlying cause for logs.
func insertCtxErr(ctx context.Context) error {
	if cause := ctx.Err(); cause != nil {
		return fmt.Errorf("incremental: insert aborted: %w (%v)", guard.ErrDeadline, cause)
	}
	return nil
}

// AgreeSets returns the maintained ag(r) in canonical order (∅ included
// when some couple disagrees everywhere).
func (m *Miner) AgreeSets() attrset.Family {
	out := make(attrset.Family, 0, len(m.agree)+1)
	for s := range m.agree {
		out = append(out, s)
	}
	if m.emptyCouplePresent() {
		out = append(out, attrset.Empty())
	}
	out.Sort()
	return out
}

func (m *Miner) emptyCouplePresent() bool {
	rows := m.store.Rows()
	return m.nonEmptyCouples < rows*(rows-1)/2
}

// Cover derives the current canonical cover of minimal non-trivial FDs
// (steps 2–4 of the Dep-Miner pipeline over the maintained agree sets).
func (m *Miner) Cover(ctx context.Context) (fd.Cover, error) {
	res, err := core.DeriveFromAgreeSets(ctx, m.AgreeSets(), m.Arity())
	if err != nil {
		return nil, err
	}
	return res.FDs, nil
}

// MaxSets derives MAX(dep(r)) for the current state (for Armstrong
// construction).
func (m *Miner) MaxSets(ctx context.Context) (attrset.Family, error) {
	res, err := core.DeriveFromAgreeSets(ctx, m.AgreeSets(), m.Arity())
	if err != nil {
		return nil, err
	}
	return res.MaxSets, nil
}

// Snapshot returns the current tuples as a Relation (e.g. to build a
// real-world Armstrong relation with values from the data). It is an
// O(|R|) view of the miner's own columns, not a copy: later inserts
// never change it.
func (m *Miner) Snapshot() *relation.Relation {
	return m.store.Relation()
}
