package durable

import "repro/internal/relation"

// snapshotMagic leads the snapshot file, before the standard frame, so a
// WAL accidentally dropped in its place fails fast.
var snapshotMagic = []byte("DMSNAP1\n")

// encodeSnapshot serialises the dataset's full state: label, schema,
// per-attribute dictionaries, uvarint-packed code columns, the row count,
// and the content fingerprint — all inside one checksummed frame.
func encodeSnapshot(name string, r *relation.Relation, fp string) []byte {
	p := putString(nil, name)
	p = putUvarint(p, uint64(r.Arity()))
	for _, n := range r.Names() {
		p = putString(p, n)
	}
	p = putUvarint(p, uint64(r.Rows()))
	for a := 0; a < r.Arity(); a++ {
		p = putUvarint(p, uint64(r.DomainSize(a)))
		for code := 0; code < r.DomainSize(a); code++ {
			p = putString(p, r.ValueForCode(a, code))
		}
		for _, code := range r.Column(a) {
			p = putUvarint(p, uint64(code))
		}
	}
	p = putString(p, fp)
	out := append([]byte(nil), snapshotMagic...)
	return appendFrame(out, p)
}

// restore reads every column and dictionary back into a column store,
// ready to take the WAL tail. Values that collide in one dictionary are
// damage the open-time pass cannot see; RestoreColumns rejects them.
func (sr *SnapshotReader) restore() (*relation.Columns, error) {
	dicts := make([][]string, sr.Arity())
	cols := make([][]int, sr.Arity())
	for a := range cols {
		var err error
		if cols[a], _, err = sr.Column(a); err != nil {
			return nil, err
		}
		if dicts[a], err = sr.Dict(a); err != nil {
			return nil, err
		}
	}
	return relation.RestoreColumns(sr.Names(), sr.NumRows(), dicts, cols)
}
