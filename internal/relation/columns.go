package relation

import (
	"fmt"
	"slices"

	"repro/internal/attrset"
)

// Columns is the append-only, dictionary-encoded column store behind
// every Relation, and the one place where string values become codes:
// FromRows, Load, the incremental miner and the durable snapshot mirror
// all encode through it. Codes are dense per attribute and assigned in
// first-occurrence order.
//
// A Columns is not safe for concurrent use; callers serialise Append
// against Relation. The views Relation returns, however, are immutable
// and may be read concurrently with later appends.
type Columns struct {
	names []string
	// index[a] maps attribute a's values to their codes; dicts[a] is
	// its inverse, code → value.
	index []map[string]int
	dicts [][]string
	// cols[a][t] is tuple t's code on attribute a.
	cols [][]int
	rows int
}

// NewColumns returns an empty store over the given schema.
func NewColumns(names []string) (*Columns, error) {
	if !attrset.Valid(len(names)) {
		return nil, ErrTooManyAttributes
	}
	c := &Columns{
		names: slices.Clone(names),
		index: make([]map[string]int, len(names)),
		dicts: make([][]string, len(names)),
		cols:  make([][]int, len(names)),
	}
	for a := range names {
		c.index[a] = make(map[string]int)
	}
	return c, nil
}

// RestoreColumns rebuilds a store from its serialised form: rows tuples,
// dicts[a][code] the value of a code and cols[a][t] tuple t's code. The
// store takes ownership of the slices (appends never write into them).
// Ragged columns, codes outside their dictionary and duplicate
// dictionary values are rejected.
func RestoreColumns(names []string, rows int, dicts [][]string, cols [][]int) (*Columns, error) {
	c, err := NewColumns(names)
	if err != nil {
		return nil, err
	}
	if len(dicts) != len(names) || len(cols) != len(names) {
		return nil, fmt.Errorf("relation: %d dictionaries and %d columns for %d attributes", len(dicts), len(cols), len(names))
	}
	for a := range names {
		if len(cols[a]) != rows {
			return nil, fmt.Errorf("relation: column %d has %d rows, want %d", a, len(cols[a]), rows)
		}
		for _, code := range cols[a] {
			if code < 0 || code >= len(dicts[a]) {
				return nil, fmt.Errorf("relation: code %d out of dictionary range %d on attribute %d", code, len(dicts[a]), a)
			}
		}
		for code, v := range dicts[a] {
			if _, dup := c.index[a][v]; dup {
				return nil, fmt.Errorf("relation: duplicate dictionary value on attribute %d", a)
			}
			c.index[a][v] = code
		}
		c.dicts[a] = dicts[a][:len(dicts[a]):len(dicts[a])]
		c.cols[a] = cols[a][:rows:rows]
	}
	c.rows = rows
	return c, nil
}

// ColumnsOf returns a store holding r's tuples, ready to grow. It shares
// r's columns and dictionaries without copying; r never sees the
// appends.
func ColumnsOf(r *Relation) (*Columns, error) {
	return RestoreColumns(r.names, r.rows, r.dicts, r.cols)
}

// Names returns the attribute names. The returned slice must not be
// modified.
func (c *Columns) Names() []string { return c.names }

// Rows returns the number of appended tuples.
func (c *Columns) Rows() int { return c.rows }

// Code returns the dictionary code of tuple t on attribute a.
func (c *Columns) Code(t int, a attrset.Attr) int { return c.cols[a][t] }

// checkArity rejects a row whose field count differs from the schema.
func (c *Columns) checkArity(row []string) error {
	if len(row) != len(c.names) {
		return fmt.Errorf("%w: row %d has %d fields, schema has %d",
			ErrRaggedRow, c.rows, len(row), len(c.names))
	}
	return nil
}

// Encode returns the codes row would be stored under if it were appended
// now, committing nothing: a value attribute a has not seen yet gets the
// next free code, its current domain size.
func (c *Columns) Encode(row []string) ([]int, error) {
	if err := c.checkArity(row); err != nil {
		return nil, err
	}
	codes := make([]int, len(row))
	for a, v := range row {
		code, ok := c.index[a][v]
		if !ok {
			code = len(c.dicts[a])
		}
		codes[a] = code
	}
	return codes, nil
}

// Append commits one tuple. The arity is checked before anything is
// written, so a rejected row leaves the store, dictionaries included,
// unchanged.
func (c *Columns) Append(row []string) error {
	if err := c.checkArity(row); err != nil {
		return err
	}
	for a, v := range row {
		code, ok := c.index[a][v]
		if !ok {
			code = len(c.dicts[a])
			c.index[a][v] = code
			c.dicts[a] = append(c.dicts[a], v)
		}
		c.cols[a] = append(c.cols[a], code)
	}
	c.rows++
	return nil
}

// Relation returns an immutable view of the tuples appended so far, in
// O(|R|): columns and dictionaries are shared, capped at their current
// length so that later appends can never write into the view.
func (c *Columns) Relation() *Relation {
	r := &Relation{
		names: c.names,
		cols:  make([][]int, len(c.names)),
		dicts: make([][]string, len(c.names)),
		rows:  c.rows,
	}
	for a := range c.names {
		r.cols[a] = c.cols[a][:c.rows:c.rows]
		r.dicts[a] = c.dicts[a][:len(c.dicts[a]):len(c.dicts[a])]
	}
	return r
}
