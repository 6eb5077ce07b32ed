package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSection4Golden pins the deterministic part of the paper's §4 as this
// repository reproduces it, and the quality study beside it: Figs. 3, 4
// and 6, Tables 1–3 and the quality table at -quick scale and the default
// seed must print exactly the bytes of testdata/section4.golden. Fig. 5
// and the ablations report timings and are left out. To regenerate the
// file after an intended change to a table, run
//
//	go run ./cmd/opbench -quick fig3 fig4 fig6 table1 table2 table3 quality | tail -n +4 > cmd/opbench/testdata/section4.golden
//
// (tail drops the provenance header) and review the diff.
func TestSection4Golden(t *testing.T) {
	var got bytes.Buffer
	for _, f := range []func(io.Writer, scale, int64) error{fig3, fig4, fig6, table1, table2, table3, quality} {
		if err := f(&got, quickScale, 1); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "section4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("§4 output differs from testdata/section4.golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
	t.Fatalf("§4 output differs from testdata/section4.golden (%d vs %d bytes)", got.Len(), len(want))
}
