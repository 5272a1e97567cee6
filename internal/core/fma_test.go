package core

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// identityPath lists the functions whose arithmetic must round exactly as
// written on every platform: the pair fills and their combination, the
// fused pass, the per-pair recompute of a compact set and the pair HPF.
// A compact set recomputes a pair with the function the fill stored it
// with; that gives the same bits only while the compiler fuses a multiply
// and an add in neither, so none may compile to a fused multiply-add.
// The evaluation functions and the distance under the exact spatial path
// join them, so that the breakdowns and scores the answer goldens record
// on amd64 are the ones arm64 computes.
var identityPath = []string{
	"repro/internal/pairs.Blend",
	"repro/internal/pairs.Combine",
	"repro/internal/core.pairHPF",
	"repro/internal/core.(*ScoreSet).PairHPF",
	"repro/internal/core.abpScores",
	"repro/internal/core.(*ScoreSet).recompute",
	"repro/internal/core.(*contextIndex).pass",
	"repro/internal/core.(*ScoreSet).fusedStep1",
	"repro/internal/core.(*ScoreSet).matrixStep1",
	"repro/internal/core.ComputeScoresCtx",
	"repro/internal/core.(*ScoreSet).Evaluate",
	"repro/internal/core.(*ScoreSet).PlaceHPF",
	"repro/internal/core.(*ScoreSet).divPair",
	"repro/internal/geo.Point.Dist",
}

// TestNoFusedMultiplyAddOnArm64 compiles internal/pairs, internal/geo and
// internal/core for arm64, where the compiler fuses a multiply feeding an add unless an
// explicit conversion rounds the product first, and fails if any
// identityPath function (with what it inlines) contains a fused
// multiply-add instruction.
func TestNoFusedMultiplyAddOnArm64(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles three packages for arm64")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command: %v", err)
	}
	cmd := exec.Command(gobin, "build", "-o", os.DevNull,
		"-gcflags=repro/internal/pairs=-S", "-gcflags=repro/internal/geo=-S",
		"-gcflags=repro/internal/core=-S", "repro/internal/core")
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "GOOS=linux", "CGO_ENABLED=0")
	var asm bytes.Buffer
	cmd.Stderr = &asm
	if err := cmd.Run(); err != nil {
		t.Fatalf("go build for arm64: %v\n%s", err, asm.String())
	}
	fma := regexp.MustCompile(`\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)
	var fn string
	seen := map[string]bool{}
	want := map[string]bool{}
	for _, f := range identityPath {
		want[f] = true
	}
	for _, line := range strings.Split(asm.String(), "\n") {
		if name, _, ok := strings.Cut(line, " STEXT"); ok && !strings.HasPrefix(line, "\t") {
			fn = name
			seen[fn] = true
			continue
		}
		if want[fn] && fma.MatchString(line) {
			t.Errorf("%s compiles to a fused multiply-add on arm64:\n%s", fn, line)
		}
	}
	for _, f := range identityPath {
		if !seen[f] {
			t.Errorf("%s not in the arm64 assembly: renamed or removed?", f)
		}
	}
}
