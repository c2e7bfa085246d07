package main

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
)

// goldenQuick is the committed stdout of `ampere-exp -exp all -quick`. It
// was produced on linux/amd64; other architectures may fuse floating-point
// multiply-adds differently and print different last digits.
const goldenQuick = "../../results/golden_quick.txt"

// TestGoldenQuick runs every experiment in-process at the -quick sizes and
// diffs the report against the committed golden byte for byte. Any change
// to a number the reproduction prints fails here. When a change moves
// numbers on purpose, re-bless with `make golden-update` and say in
// CHANGES.md which numbers moved and why.
func TestGoldenQuick(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden produced on amd64; %s may round floating point differently", runtime.GOARCH)
	}
	want, err := os.ReadFile(goldenQuick)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	rc := runCtx{quick: true, parallel: runtime.NumCPU(), timing: io.Discard}
	if err := runExperiments(&got, io.Discard, order, rc); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g := strings.Split(got.String(), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("quick output differs from %s at line %d (got %d lines, want %d):\n got: %q\nwant: %q\n"+
				"re-bless with `make golden-update` only when the change is intended",
				goldenQuick, i+1, len(g), len(w), gl, wl)
		}
	}
}
