package relation

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// rowsOf decodes every tuple of r.
func rowsOf(r *Relation) [][]string {
	out := make([][]string, r.Rows())
	for t := range out {
		out[t] = r.Row(t)
	}
	return out
}

func mustColumns(t *testing.T, names []string, rows [][]string) *Columns {
	t.Helper()
	c, err := NewColumns(names)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := c.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestColumnsViewIsImmutable pins the view contract: a Relation taken
// before further appends keeps its rows, domain sizes and codes, even
// though the store keeps growing into the same backing arrays.
func TestColumnsViewIsImmutable(t *testing.T) {
	rows := [][]string{{"a", "x"}, {"b", "x"}, {"a", "y"}}
	c := mustColumns(t, []string{"A", "B"}, rows)
	view := c.Relation()
	for i := 0; i < 100; i++ {
		if err := c.Append([]string{"new" + string(rune('a'+i%26)), "z"}); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.EqualFunc(rowsOf(view), rows, slices.Equal) {
		t.Fatalf("view rows changed under appends: %v", rowsOf(view))
	}
	if view.DomainSize(0) != 2 || view.DomainSize(1) != 2 {
		t.Fatalf("view domain sizes %d,%d, want 2,2", view.DomainSize(0), view.DomainSize(1))
	}
	if n := len(view.Column(0)); n != 3 || cap(view.Column(0)) != 3 {
		t.Fatalf("view column len/cap = %d/%d, want 3/3", n, cap(view.Column(0)))
	}
	if got := c.Relation(); got.Rows() != 103 || got.DomainSize(1) != 3 {
		t.Fatalf("fresh view %d rows, dom %d", got.Rows(), got.DomainSize(1))
	}
}

// TestColumnsRejectedRowCommitsNothing: a ragged row and Encode both
// leave the store, dictionaries included, exactly as it was.
func TestColumnsRejectedRowCommitsNothing(t *testing.T) {
	c := mustColumns(t, []string{"A", "B"}, [][]string{{"a", "x"}})
	if err := c.Append([]string{"fresh"}); !errors.Is(err, ErrRaggedRow) {
		t.Fatalf("ragged Append = %v, want ErrRaggedRow", err)
	}
	codes, err := c.Encode([]string{"fresh", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(codes, []int{1, 0}) {
		t.Fatalf("Encode = %v, want [1 0] (next free code, existing code)", codes)
	}
	if _, err := c.Encode([]string{"a"}); !errors.Is(err, ErrRaggedRow) {
		t.Fatalf("ragged Encode = %v, want ErrRaggedRow", err)
	}
	r := c.Relation()
	if r.Rows() != 1 || r.DomainSize(0) != 1 || r.DomainSize(1) != 1 {
		t.Fatalf("store changed: %d rows, domains %d,%d", r.Rows(), r.DomainSize(0), r.DomainSize(1))
	}
	// The staged codes are the ones Append then assigns.
	if err := c.Append([]string{"fresh", "x"}); err != nil {
		t.Fatal(err)
	}
	if c.Code(1, 0) != 1 || c.Code(1, 1) != 0 {
		t.Fatalf("Append assigned %d,%d, Encode promised 1,0", c.Code(1, 0), c.Code(1, 1))
	}
}

// TestFromRowsAndLoadEncodeAlike: both front ends go through the store,
// so they produce the same codes and dictionaries.
func TestFromRowsAndLoadEncodeAlike(t *testing.T) {
	r := PaperExample()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < r.Arity(); a++ {
		if !slices.Equal(loaded.Column(a), r.Column(a)) || loaded.DomainSize(a) != r.DomainSize(a) {
			t.Fatalf("attribute %d encoded differently by Load and FromRows", a)
		}
	}
}

// TestColumnsOfGrowsWithoutTouchingTheSource: a store over an existing
// relation shares its columns, and appending to it leaves the relation
// as it was.
func TestColumnsOfGrowsWithoutTouchingTheSource(t *testing.T) {
	r := PaperExample()
	before := rowsOf(r)
	c, err := ColumnsOf(r)
	if err != nil {
		t.Fatal(err)
	}
	extra := slices.Clone(before[0])
	extra[0] = "brand-new"
	if err := c.Append(extra); err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(rowsOf(r), before, slices.Equal) || r.DomainSize(0) != PaperExample().DomainSize(0) {
		t.Fatal("appending to ColumnsOf(r) changed r")
	}
	grown := c.Relation()
	if grown.Rows() != r.Rows()+1 || !slices.Equal(grown.Row(r.Rows()), extra) {
		t.Fatalf("grown store lost the appended row: %v", grown.Row(grown.Rows()-1))
	}
	// An existing value gets its existing code.
	if grown.Code(r.Rows(), 1) != r.Code(0, 1) {
		t.Fatal("existing value re-encoded under a new code")
	}
}

func TestRestoreColumnsRejectsDamage(t *testing.T) {
	names := []string{"A", "B"}
	for _, tc := range []struct {
		name  string
		rows  int
		dicts [][]string
		cols  [][]int
	}{
		{"code out of range", 1, [][]string{{"a"}, {"x"}}, [][]int{{1}, {0}}},
		{"negative code", 1, [][]string{{"a"}, {"x"}}, [][]int{{-1}, {0}}},
		{"duplicate value", 2, [][]string{{"a", "a"}, {"x"}}, [][]int{{0, 1}, {0, 0}}},
		{"ragged column", 2, [][]string{{"a"}, {"x"}}, [][]int{{0, 0}, {0}}},
		{"missing column", 1, [][]string{{"a"}, {"x"}}, [][]int{{0}}},
	} {
		if _, err := RestoreColumns(names, tc.rows, tc.dicts, tc.cols); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	c, err := RestoreColumns(names, 2, [][]string{{"a", "b"}, {"x"}}, [][]int{{1, 0}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(c.Relation()); !slices.EqualFunc(got, [][]string{{"b", "x"}, {"a", "x"}}, slices.Equal) {
		t.Fatalf("restored rows %v", got)
	}
}
