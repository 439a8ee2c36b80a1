package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
)

// TestQuickAllGolden runs the experiment table on a fresh quick lab, as
// `dnnperf -quick all` does, and diffs its output byte for byte against
// testdata/all-quick.golden (`make experiments` regenerates it), so a
// change that moves any printed figure shows up here and in that diff.
func TestQuickAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment on the quick lab")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all-quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := runAll(&got, bench.NewQuickLab()); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("line %d differs from the golden:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output has %d lines, the golden %d", len(gotLines), len(wantLines))
}
