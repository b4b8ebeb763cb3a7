package maxsets

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/agree"
	"repro/internal/attrset"
	"repro/internal/partition"
	"repro/internal/relation"
)

func sets(specs ...string) attrset.Family {
	out := make(attrset.Family, 0, len(specs))
	for _, s := range specs {
		set, ok := attrset.Parse(s)
		if !ok {
			panic("bad spec " + s)
		}
		out = append(out, set)
	}
	return out
}

// Paper Example 9: max and cmax for the running example.
func TestPaperExample(t *testing.T) {
	r := relation.PaperExample()
	ag, err := agree.Identifiers(context.Background(), partition.NewDatabase(r), agree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := Compute(ag.Sets, r.Arity())

	wantMax := []attrset.Family{
		sets("BDE", "CE"),
		sets("A", "CE"),
		sets("A", "BDE"),
		sets("A", "CE"),
		sets("A"),
	}
	wantCMax := []attrset.Family{
		sets("AC", "ABD"),
		sets("BCDE", "ABD"),
		sets("BCDE", "AC"),
		sets("BCDE", "ABD"),
		sets("BCDE"),
	}
	for a := 0; a < 5; a++ {
		if !res.Max[a].Equal(wantMax[a]) {
			t.Errorf("max(dep(r),%c) = %v, want %v", 'A'+a, res.Max[a].Strings(), wantMax[a].Strings())
		}
		if !res.CMax[a].Equal(wantCMax[a]) {
			t.Errorf("cmax(dep(r),%c) = %v, want %v", 'A'+a, res.CMax[a].Strings(), wantCMax[a].Strings())
		}
	}

	// MAX(dep(r)) = {A, BDE, CE} (paper example 12 uses MAX ∪ R).
	if all := res.AllMax(); !all.Equal(sets("A", "BDE", "CE")) {
		t.Errorf("MAX(dep(r)) = %v", all.Strings())
	}
}

// definitionalMax computes max(dep(r),A) straight from the definition, as
// the ground truth: maximal X ⊆ R with r ⊭ X → A.
func definitionalMax(r *relation.Relation, a int) attrset.Family {
	n := r.Arity()
	var fam attrset.Family
	for bits := 0; bits < 1<<n; bits++ {
		var x attrset.Set
		for b := 0; b < n; b++ {
			if bits&(1<<b) != 0 {
				x.Add(b)
			}
		}
		if x.Contains(a) {
			continue
		}
		if !r.Satisfies(x, a) {
			fam = append(fam, x)
		}
	}
	return fam.Maximal()
}

// TestLemma3Property: the agree-set characterisation equals the
// definitional maximal sets on random relations — including relations with
// constant columns and with everywhere-disagreeing tuples.
func TestLemma3Property(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 80; iter++ {
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
		r = r.Deduplicate() // dep(r) is defined on set semantics
		ag, err := agree.Identifiers(context.Background(), partition.NewDatabase(r), agree.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := Compute(ag.Sets, n)
		for a := 0; a < n; a++ {
			want := definitionalMax(r, a)
			if !res.Max[a].Equal(want) {
				t.Fatalf("iter %d: max(dep(r),%d) = %v, want %v (ag=%v, rows=%d)",
					iter, a, res.Max[a].Strings(), want.Strings(), ag.Sets.Strings(), r.Rows())
			}
		}
	}
}

func TestCMaxIsComplement(t *testing.T) {
	r := relation.PaperExample()
	ag, _ := agree.Identifiers(context.Background(), partition.NewDatabase(r), agree.Options{})
	res := Compute(ag.Sets, r.Arity())
	for a := 0; a < res.Arity; a++ {
		if len(res.Max[a]) != len(res.CMax[a]) {
			t.Fatalf("attr %d: len mismatch", a)
		}
		for _, x := range res.Max[a] {
			if !res.CMax[a].Contains(x.Complement(res.Arity)) {
				t.Fatalf("attr %d: complement of %v missing", a, x)
			}
		}
		// cmax edges always contain A itself (A ∉ X ⇒ A ∈ R\X).
		for _, e := range res.CMax[a] {
			if !e.Contains(a) {
				t.Fatalf("cmax edge %v does not contain %d", e, a)
			}
		}
	}
}

func TestConstantColumn(t *testing.T) {
	// Column b constant: every couple agrees on b, so there is no agree
	// set avoiding b → max(dep(r),b) = ∅.
	r, err := relation.FromRows([]string{"a", "b"},
		[][]string{{"1", "k"}, {"2", "k"}, {"3", "k"}})
	if err != nil {
		t.Fatal(err)
	}
	ag, err := agree.Identifiers(context.Background(), partition.NewDatabase(r), agree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := Compute(ag.Sets, 2)
	if len(res.Max[1]) != 0 || len(res.CMax[1]) != 0 {
		t.Errorf("constant column: max=%v cmax=%v, want empty",
			res.Max[1].Strings(), res.CMax[1].Strings())
	}
	// Column a is a key: ag(r) = {B}; max(dep(r),a) = {B}, cmax = {A}.
	if !res.Max[0].Equal(sets("B")) || !res.CMax[0].Equal(sets("A")) {
		t.Errorf("key column: max=%v cmax=%v", res.Max[0].Strings(), res.CMax[0].Strings())
	}
}

func TestEmptyAgreeSetHandling(t *testing.T) {
	// Two tuples disagreeing everywhere: ag(r) = {∅}; for each attribute,
	// max = {∅} and cmax = {R}.
	r, err := relation.FromRows([]string{"a", "b"}, [][]string{{"1", "x"}, {"2", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	ag, err := agree.Identifiers(context.Background(), partition.NewDatabase(r), agree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := Compute(ag.Sets, 2)
	for a := 0; a < 2; a++ {
		if !res.Max[a].Equal(attrset.Family{attrset.Empty()}) {
			t.Errorf("max[%d] = %v, want {∅}", a, res.Max[a].Strings())
		}
		if !res.CMax[a].Equal(sets("AB")) {
			t.Errorf("cmax[%d] = %v, want {AB}", a, res.CMax[a].Strings())
		}
	}
}

func TestNoAgreeSets(t *testing.T) {
	// Single tuple: ag(r) = {} → max and cmax empty for every attribute.
	res := Compute(nil, 3)
	for a := 0; a < 3; a++ {
		if len(res.Max[a]) != 0 || len(res.CMax[a]) != 0 {
			t.Errorf("attr %d not empty", a)
		}
	}
	if len(res.AllMax()) != 0 {
		t.Error("AllMax should be empty")
	}
}

func TestFromMax(t *testing.T) {
	max := []attrset.Family{
		sets("BDE", "CE", "BDE"), // duplicate collapses
		sets("A", "CE"),
	}
	res := FromMax(max, 5)
	if !res.Max[0].Equal(sets("BDE", "CE")) {
		t.Errorf("Max[0] = %v", res.Max[0].Strings())
	}
	if !res.CMax[0].Equal(sets("AC", "ABD")) {
		t.Errorf("CMax[0] = %v", res.CMax[0].Strings())
	}
	if !res.CMax[1].Equal(sets("BCDE", "ABD")) {
		t.Errorf("CMax[1] = %v", res.CMax[1].Strings())
	}
}

func TestAllMaxDedupAcrossAttributes(t *testing.T) {
	// A appears in max sets of B, C and D in the paper example; AllMax
	// must contain it once.
	r := relation.PaperExample()
	ag, _ := agree.Identifiers(context.Background(), partition.NewDatabase(r), agree.Options{})
	res := Compute(ag.Sets, r.Arity())
	all := res.AllMax()
	count := 0
	for _, s := range all {
		if s == attrset.Single(0) {
			count++
		}
	}
	if count != 1 {
		t.Errorf("A appears %d times in AllMax", count)
	}
}
