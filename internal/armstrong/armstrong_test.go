package armstrong

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/agree"
	"repro/internal/attrset"
	"repro/internal/fd"
	"repro/internal/maxsets"
	"repro/internal/partition"
	"repro/internal/relation"
)

func set(spec string) attrset.Set {
	s, ok := attrset.Parse(spec)
	if !ok {
		panic("bad spec " + spec)
	}
	return s
}

// paperMax is MAX(dep(r)) = {A, BDE, CE} for the running example, in the
// canonical order Dep-Miner produces.
func paperMax() attrset.Family {
	return attrset.Family{set("A"), set("BDE"), set("CE")}
}

func names() []string {
	return []string{"empnum", "depnum", "year", "depname", "mgr"}
}

// TestSyntheticPaperExample reproduces Example 12's integer relation
// shape: 4 tuples, first all-zero, each later tuple zero exactly on its
// maximal set.
func TestSyntheticPaperExample(t *testing.T) {
	r, err := Synthetic(paperMax(), names())
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows() != 4 {
		t.Fatalf("Rows = %d, want 4", r.Rows())
	}
	if Size(paperMax()) != 4 {
		t.Error("Size = |MAX|+1")
	}
	for a := 0; a < 5; a++ {
		if r.Value(0, a) != "0" {
			t.Errorf("t0[%d] = %q", a, r.Value(0, a))
		}
	}
	for i, x := range paperMax() {
		for a := 0; a < 5; a++ {
			got := r.Value(i+1, a)
			if x.Contains(a) && got != "0" {
				t.Errorf("t%d[%d] = %q, want 0", i+1, a, got)
			}
			if !x.Contains(a) && got == "0" {
				t.Errorf("t%d[%d] = 0, want non-zero", i+1, a)
			}
		}
	}
}

// depEquivalent reports whether two relations satisfy exactly the same
// FDs, via brute-force minimal covers and mutual implication.
func depEquivalent(t *testing.T, r1, r2 *relation.Relation) bool {
	t.Helper()
	c1 := fd.MineBrute(r1)
	c2 := fd.MineBrute(r2)
	return c1.Equivalent(c2, r1.Arity())
}

func TestSyntheticIsArmstrongForPaperExample(t *testing.T) {
	orig := relation.PaperExample()
	arm, err := Synthetic(paperMax(), names())
	if err != nil {
		t.Fatal(err)
	}
	if !depEquivalent(t, orig, arm) {
		t.Errorf("synthetic relation not Armstrong:\n%v", arm)
	}
}

// Paper Example 13 (with the +1 of Proposition 1 applied correctly — the
// example's printed right-hand sides omit it, but the condition holds
// either way: 6≥3, 4≥3, 6≥3, 4≥3, 3≥2).
func TestCheckPaperExample(t *testing.T) {
	if err := Check(relation.PaperExample(), paperMax()); err != nil {
		t.Fatalf("existence condition should hold: %v", err)
	}
}

func TestRealWorldPaperExample(t *testing.T) {
	orig := relation.PaperExample()
	arm, err := RealWorld(orig, paperMax())
	if err != nil {
		t.Fatal(err)
	}
	if arm.Rows() != 4 {
		t.Fatalf("Rows = %d, want 4", arm.Rows())
	}
	// Row 0 carries each attribute's first value from the original.
	wantFirst := []string{"1", "1", "85", "Biochemistry", "5"}
	for a, w := range wantFirst {
		if arm.Value(0, a) != w {
			t.Errorf("t0[%d] = %q, want %q", a, arm.Value(0, a), w)
		}
	}
	// Every value comes from the original active domain.
	for tt := 0; tt < arm.Rows(); tt++ {
		for a := 0; a < arm.Arity(); a++ {
			v := arm.Value(tt, a)
			found := false
			for code := 0; code < orig.DomainSize(a); code++ {
				if orig.ValueForCode(a, code) == v {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("value %q of attribute %d not in original domain", v, a)
			}
		}
	}
	// Exactly the same dependencies hold.
	if !depEquivalent(t, orig, arm) {
		t.Errorf("real-world relation not Armstrong:\n%v", arm)
	}
}

func TestRealWorldBoundaryExactlyEnoughValues(t *testing.T) {
	// Tight case: a must take 2 distinct values ({X | a ∉ X} = {B}) and
	// has exactly 2; b constant needs only 1. The construction succeeds
	// and stays Armstrong.
	r, err := relation.FromRows([]string{"a", "b"},
		[][]string{{"1", "k"}, {"2", "k"}})
	if err != nil {
		t.Fatal(err)
	}
	maxSets := attrset.Family{set("B")}
	arm, err := RealWorld(r, maxSets)
	if err != nil {
		t.Fatalf("boundary case should succeed: %v", err)
	}
	if arm.Rows() != 2 {
		t.Fatalf("Rows = %d, want 2", arm.Rows())
	}
	if !depEquivalent(t, r, arm) {
		t.Errorf("boundary Armstrong mismatch:\n%v", arm)
	}
}

func TestRealWorldNotEnoughValuesDetail(t *testing.T) {
	// Force a clear failure: a must take 3 distinct values (two maximal
	// sets avoid it) but has only 2.
	r, err := relation.FromRows([]string{"a", "b", "c"}, [][]string{
		{"1", "x", "p"}, {"2", "y", "q"},
	})
	if err != nil {
		t.Fatal(err)
	}
	maxSets := attrset.Family{set("B"), set("C")} // both avoid a
	_, err = RealWorld(r, maxSets)
	var detail *ErrNotEnoughValues
	if !errors.As(err, &detail) {
		t.Fatalf("err = %v", err)
	}
	if detail.Attr != 0 || detail.Have != 2 || detail.Need != 3 {
		t.Errorf("detail = %+v", detail)
	}
	if detail.Error() == "" {
		t.Error("empty error message")
	}
}

func TestEmptyMaxSets(t *testing.T) {
	// A 1-tuple relation satisfies every FD; MAX is empty and the
	// Armstrong relation is the single first-values tuple.
	r, err := relation.FromRows([]string{"a", "b"}, [][]string{{"1", "x"}})
	if err != nil {
		t.Fatal(err)
	}
	arm, err := RealWorld(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if arm.Rows() != 1 {
		t.Fatalf("Rows = %d, want 1", arm.Rows())
	}
	if !depEquivalent(t, r, arm) {
		t.Error("1-tuple Armstrong mismatch")
	}
	syn, err := Synthetic(nil, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if syn.Rows() != 1 {
		t.Error("synthetic empty MAX should have 1 row")
	}
}

// maxSetsOf computes MAX(dep(r)) through the agree-set pipeline.
func maxSetsOf(t *testing.T, r *relation.Relation) attrset.Family {
	t.Helper()
	ag, err := agree.Identifiers(context.Background(), partition.NewDatabase(r), agree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return maxsets.Compute(ag.Sets, r.Arity()).AllMax()
}

// TestPropertyArmstrongOnRandomRelations: for random relations whose
// active domains are rich enough, the real-world Armstrong relation
// satisfies exactly dep(r); the synthetic one always does.
func TestPropertyArmstrongOnRandomRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	built := 0
	for iter := 0; iter < 60; iter++ {
		n := 2 + rng.Intn(3)
		rows := 2 + rng.Intn(14)
		cols := make([][]int, n)
		for a := range cols {
			cols[a] = make([]int, rows)
			dom := 2 + rng.Intn(rows)
			for i := range cols[a] {
				cols[a][i] = rng.Intn(dom)
			}
		}
		r, err := relation.FromCodes(make([]string, n), cols)
		if err != nil {
			t.Fatal(err)
		}
		r = r.Deduplicate()
		maxSets := maxSetsOf(t, r)

		syn, err := Synthetic(maxSets, r.Names())
		if err != nil {
			t.Fatal(err)
		}
		if !depEquivalent(t, r, syn) {
			t.Fatalf("iter %d: synthetic not Armstrong\norig:\n%v\nmax: %v\narm:\n%v",
				iter, r, maxSets.Strings(), syn)
		}

		rw, err := RealWorld(r, maxSets)
		var insufficient *ErrNotEnoughValues
		if errors.As(err, &insufficient) {
			continue // legitimately impossible for this relation
		}
		if err != nil {
			t.Fatal(err)
		}
		built++
		if rw.Rows() != Size(maxSets) {
			t.Fatalf("iter %d: size %d, want %d", iter, rw.Rows(), Size(maxSets))
		}
		if !depEquivalent(t, r, rw) {
			t.Fatalf("iter %d: real-world not Armstrong\norig:\n%v\nmax: %v\narm:\n%v",
				iter, r, maxSets.Strings(), rw)
		}
	}
	if built == 0 {
		t.Error("no real-world Armstrong relation was ever constructible; test is vacuous")
	}
}

// TestAgreeSetsOfArmstrongRelation checks the BDFS84 characterisation
// directly on the paper example: GEN(F) ⊆ ag(r̄) ⊆ CL(F).
func TestAgreeSetsOfArmstrongRelation(t *testing.T) {
	orig := relation.PaperExample()
	arm, err := RealWorld(orig, paperMax())
	if err != nil {
		t.Fatal(err)
	}
	agArm, err := agree.Naive(context.Background(), arm)
	if err != nil {
		t.Fatal(err)
	}
	cover := fd.MineBrute(orig)
	closed := cover.ClosedSets(orig.Arity())
	for _, m := range paperMax() {
		if !agArm.Sets.Contains(m) {
			t.Errorf("GEN member %v missing from ag(armstrong)", m)
		}
	}
	for _, x := range agArm.Sets {
		if !closed.Contains(x) {
			t.Errorf("agree set %v of armstrong relation is not closed", x)
		}
	}
}
