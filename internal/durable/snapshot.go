package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/relation"
)

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

// decodeSnapshot rebuilds the column store from a snapshot file's
// bytes. Any damage — bad magic, checksum mismatch, structural error, an
// out-of-range code, a duplicate dictionary value — returns an error;
// the caller quarantines, because with the WAL already compacted away
// there is nothing to fall back on.
func decodeSnapshot(data []byte) (name string, c *relation.Columns, fp string, err error) {
	if len(data) < len(snapshotMagic) || string(data[:len(snapshotMagic)]) != string(snapshotMagic) {
		return "", nil, "", fmt.Errorf("bad snapshot magic")
	}
	body := data[len(snapshotMagic):]
	if len(body) < frameHeaderLen {
		return "", nil, "", fmt.Errorf("snapshot truncated")
	}
	n := int(binary.LittleEndian.Uint32(body[0:4]))
	if n > maxRecordBytes || frameHeaderLen+n != len(body) {
		return "", nil, "", fmt.Errorf("snapshot frame length %d does not match file size %d", n, len(body)-frameHeaderLen)
	}
	payload := body[frameHeaderLen:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(body[4:8]) {
		return "", nil, "", fmt.Errorf("snapshot checksum mismatch")
	}

	r := &payloadReader{buf: payload}
	name = r.string()
	nAttrs := r.uvarint()
	if nAttrs > uint64(len(payload)) {
		return "", nil, "", fmt.Errorf("implausible attribute count %d", nAttrs)
	}
	names := make([]string, nAttrs)
	for i := range names {
		names[i] = r.string()
	}
	rows := r.uvarint()
	if rows > uint64(len(payload)) {
		return "", nil, "", fmt.Errorf("implausible row count %d", rows)
	}
	if r.err != nil {
		return "", nil, "", r.err
	}
	dicts := make([][]string, nAttrs)
	cols := make([][]int, nAttrs)
	for a := range names {
		dictSize := r.uvarint()
		if dictSize > uint64(len(payload)) {
			return "", nil, "", fmt.Errorf("implausible dictionary size %d", dictSize)
		}
		dicts[a] = make([]string, dictSize)
		for code := range dicts[a] {
			dicts[a][code] = r.string()
		}
		cols[a] = make([]int, rows)
		for t := range cols[a] {
			cols[a][t] = int(r.uvarint())
		}
		if r.err != nil {
			return "", nil, "", r.err
		}
	}
	fp = r.string()
	if err := r.done(); err != nil {
		return "", nil, "", err
	}
	c, err = relation.RestoreColumns(names, int(rows), dicts, cols)
	if err != nil {
		return "", nil, "", err
	}
	return name, c, fp, nil
}
