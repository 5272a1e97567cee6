package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleFigureSmall(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "small", "-fig", "fig9b"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"fig9b", "squared_err", "radial_err"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.txt")
	var out bytes.Buffer
	if err := run([]string{"-scale", "small", "-fig", "fig12a", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fig12a") {
		t.Error("stdout missing table")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "bogus"}, &out); err == nil {
		t.Error("bogus scale accepted")
	}
	if err := run([]string{"-scale", "small", "-fig", "fig99"}, &out); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run([]string{"-scale", "small", "-fig", "fig9b", "-out", "/nonexistent-dir/x.txt"}, &out); err == nil {
		t.Error("unwritable output accepted")
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-scale", "small", "-fig", "fig9b", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig9b.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "squared_err") {
		t.Errorf("csv content: %s", data)
	}
}

var update = flag.Bool("update", false, "rewrite the pinned results_csv files from the current code")

// TestFig12aPinned reruns the full-scale fig12a, the user study that runs
// ABP_D, and compares its CSV byte for byte with the committed
// results_csv/fig12a.csv. The figure is deterministic, so any change to
// the selections of ABP, ABP_D or S_k or to the study panel shows up as a
// diff. Run with -update to rewrite the file.
func TestFig12aPinned(t *testing.T) { checkPinnedFigure(t, "fig12a") }

// pinnedFigures are the other figures whose every column is
// deterministic: the grid approximation errors (fig9a–d), the HPF
// breakdowns of the selections (fig11, which runs ComputeScores and
// Evaluate at paper scale) and the λ/γ user-study sweep (fig12b).
var pinnedFigures = []string{"fig9a", "fig9b", "fig9c", "fig9d", "fig11", "fig12b"}

// TestFiguresPinned pins each of pinnedFigures as TestFig12aPinned pins
// fig12a, so any change to a selection, a score or the study panel shows
// up as a diff.
func TestFiguresPinned(t *testing.T) {
	for _, fig := range pinnedFigures {
		t.Run(fig, func(t *testing.T) { checkPinnedFigure(t, fig) })
	}
}

// checkPinnedFigure reruns fig at full scale and compares its CSV byte
// for byte with the committed results_csv/<fig>.csv, or rewrites that
// file under -update.
func checkPinnedFigure(t *testing.T, fig string) {
	t.Helper()
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-scale", "full", "-fig", fig, "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, fig+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := filepath.Join("..", "..", "results_csv", fig+".csv")
	if *update {
		if err := os.WriteFile(pinned, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s.csv differs from %s:\n got:\n%s\nwant:\n%s", fig, pinned, got, want)
	}
}
