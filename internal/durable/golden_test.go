package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenSnapshot is a DMSNAP1 file written for goldenHistory by an
// earlier encoder. The snapshot format is an on-disk contract: a data
// directory written by one build must recover under the next, so the
// encoder must reproduce these bytes exactly.
const goldenSnapshot = "testdata/golden.snap"

// goldenHistory registers a dataset and appends to it in three batches,
// with values repeated across batches, new values arriving late, empty
// strings and a multi-byte value, so the dictionaries and code columns
// cover every encoding case. It returns the compacted snapshot's bytes.
func goldenHistory(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	s, _ := openStore(t, dir, Options{DisableFsync: true, SnapshotEvery: -1})
	names := []string{"user", "city", "note"}
	f := NewFingerprint(names)
	reg := [][]string{
		{"ann", "Lyon", ""},
		{"bob", "Lyon", "x"},
		{"ann", "Paris", "x"},
	}
	for _, r := range reg {
		f.AddRow(r)
	}
	d, err := s.Create("ds-golden", "golden", names, reg, f.Sum())
	if err != nil {
		t.Fatal(err)
	}
	rows := len(reg)
	for _, batch := range [][][]string{
		{{"cid", "Lyon", "x"}},
		{{"bob", "Zürich", ""}, {"dan", "Paris", "long note, with a comma"}},
		{{"ann", "Lyon", ""}, {"eve", "Nice", "y"}, {"cid", "Nice", "y"}},
	} {
		for _, r := range batch {
			f.AddRow(r)
		}
		rows += len(batch)
		tok, err := d.Append(batch, rows, f.Sum())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Sync(tok); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CompactAll(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "datasets", "ds-golden", "snapshot.snap"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotBytesMatchGolden pins the DMSNAP1 encoding byte for byte.
func TestSnapshotBytesMatchGolden(t *testing.T) {
	want, err := os.ReadFile(goldenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenHistory(t); !bytes.Equal(got, want) {
		t.Fatalf("snapshot encoding drifted from %s:\ngot  %q\nwant %q", goldenSnapshot, got, want)
	}
}
