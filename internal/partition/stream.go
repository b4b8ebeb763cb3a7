package partition

import (
	"io"

	"repro/internal/relation"
)

// StreamResult is a stripped partition database extracted from a CSV
// stream, plus the schema metadata discovery needs. This is the paper's
// "database accesses are only performed during the computation of agree
// sets" reading made literal: one pass over the data, then the relation
// is never touched again (real-world Armstrong relations, which need
// original values, are unavailable on this path).
type StreamResult struct {
	DB *Database
	// Names are the attribute names (from the header, or col0, col1...).
	Names []string
	// DomainSizes[a] is the number of distinct values seen per column —
	// enough to evaluate the Proposition 1 existence condition even
	// without values.
	DomainSizes []int
}

// Stream reads a CSV relation in one pass and builds its stripped
// partition database. The rows are encoded into the dictionary-coded
// column store as they are read (relation.Load), so no record outlives
// its own read. If header is true the first record names the
// attributes.
func Stream(r io.Reader, header bool) (*StreamResult, error) {
	rel, err := relation.Load(r, header)
	if err != nil {
		return nil, err
	}
	res := &StreamResult{DB: NewDatabase(rel), Names: rel.Names(), DomainSizes: make([]int, rel.Arity())}
	for a := range res.DomainSizes {
		res.DomainSizes[a] = rel.DomainSize(a)
	}
	return res, nil
}
