package maxsets

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/agree"
	"repro/internal/attrset"
	"repro/internal/fd"
	"repro/internal/partition"
	"repro/internal/relation"
)

// TestFromCoverPaperExample: rebuilding maximal sets from the 14 minimal
// FDs via Tr(lhs) must give the same max/cmax as the agree-set path.
func TestFromCoverPaperExample(t *testing.T) {
	r := relation.PaperExample()
	cover := fd.MineBrute(r)
	res, err := FromCover(context.Background(), cover, r.Arity())
	if err != nil {
		t.Fatal(err)
	}
	ag, err := agree.Identifiers(context.Background(), partition.NewDatabase(r), agree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := Compute(ag.Sets, r.Arity())
	for a := 0; a < r.Arity(); a++ {
		if !res.Max[a].Equal(want.Max[a]) {
			t.Errorf("max[%c] = %v, want %v", 'A'+a, res.Max[a].Strings(), want.Max[a].Strings())
		}
		if !res.CMax[a].Equal(want.CMax[a]) {
			t.Errorf("cmax[%c] = %v, want %v", 'A'+a, res.CMax[a].Strings(), want.CMax[a].Strings())
		}
	}
	if !res.AllMax().Equal(want.AllMax()) {
		t.Errorf("AllMax = %v, want %v", res.AllMax().Strings(), want.AllMax().Strings())
	}
}

func TestFromCoverConstantColumn(t *testing.T) {
	// ∅ → B: attribute B has no maximal sets.
	cover := fd.Cover{{LHS: attrset.Empty(), RHS: 1}}
	res, err := FromCover(context.Background(), cover, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Max[1]) != 0 {
		t.Errorf("max[B] = %v, want empty", res.Max[1].Strings())
	}
	// Attribute A has no FDs: lhs = {A}, cmax = Tr({A}) = {A},
	// max = {R \ A} = {B}.
	if !res.Max[0].Equal(attrset.Family{attrset.Single(1)}) {
		t.Errorf("max[A] = %v, want {B}", res.Max[0].Strings())
	}
}

// TestFromCoverMatchesAgreePathOnRandomRelations: property test of the
// nihilpotence bridge on random relations.
func TestFromCoverMatchesAgreePathOnRandomRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(5)
		rows := rng.Intn(15)
		cols := make([][]int, n)
		for a := range cols {
			cols[a] = make([]int, rows)
			dom := 1 + rng.Intn(5)
			for i := range cols[a] {
				cols[a][i] = rng.Intn(dom)
			}
		}
		r, err := relation.FromCodes(make([]string, n), cols)
		if err != nil {
			t.Fatal(err)
		}
		r = r.Deduplicate()
		cover := fd.MineBrute(r)
		got, err := FromCover(context.Background(), cover, n)
		if err != nil {
			t.Fatal(err)
		}
		ag, err := agree.Identifiers(context.Background(), partition.NewDatabase(r), agree.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := Compute(ag.Sets, n)
		for a := 0; a < n; a++ {
			if !got.Max[a].Equal(want.Max[a]) {
				t.Fatalf("iter %d: max[%d] = %v, want %v\nrelation:\n%v",
					iter, a, got.Max[a].Strings(), want.Max[a].Strings(), r)
			}
		}
	}
}

func TestFromCoverCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cover := fd.Cover{{LHS: attrset.Single(1), RHS: 0}}
	if _, err := FromCover(ctx, cover, 2); err == nil {
		t.Error("cancelled context should abort")
	}
}
