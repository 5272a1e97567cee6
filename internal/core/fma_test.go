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
// written on every platform: the pair combination, the fused pass, the
// per-pair recompute and the instance's row kernel (with every spatial
// pair type's At and Row), the two pair scores, IAdU's row update, and
// ABP's rank join, which scores pairs with them and bounds them by its
// keys (the bound's slack assumes separately rounded products). Step 2
// recomputes each pair with the functions Step 1 sums it with; that gives
// the bits the matrix oracle stores only while the compiler fuses a
// multiply and an add in none of them, so none may compile to a fused
// multiply-add. The evaluation functions, the
// distances, the squared and radial grids, the IR-tree's retrieval score
// and the generators of the golden corpus join them, so that the corpus,
// retrieval, breakdowns and scores the answer goldens record on amd64 are
// the ones arm64 computes.
var identityPath = []string{
	"repro/internal/pairs.Blend",
	"repro/internal/core.pairHPF",
	"repro/internal/core.(*ScoreSet).PairHPF",
	"repro/internal/core.newABPJoin",
	"repro/internal/core.abpBound",
	"repro/internal/core.(*abpJoin).band",
	"repro/internal/core.(*ScoreSet).Pair",
	"repro/internal/core.(*instance).Row",
	"repro/internal/core.pairRule.addScores",
	"repro/internal/core.(*contextIndex).pass",
	"repro/internal/core.(*ScoreSet).fusedStep1",
	"repro/internal/core.ComputeScoresCtx",
	"repro/internal/core.(*ScoreSet).Evaluate",
	"repro/internal/core.(*ScoreSet).PlaceHPF",
	"repro/internal/core.(*ScoreSet).divPair",
	"repro/internal/core.divScore",
	"repro/internal/geo.Point.Dist",
	"repro/internal/geo.Point.SqDist",
	"repro/internal/geo.FarthestDist",
	"repro/internal/geo.Rect.MinDist",
	"repro/internal/geo.Rect.MaxDist",
	"repro/internal/grid.unitSS",
	"repro/internal/core.exactPairs.At",
	"repro/internal/core.customPairs.At",
	"repro/internal/core.customPairs.Row",
	"repro/internal/grid.ExactPairs.At",
	"repro/internal/grid.ExactPairs.Row",
	"repro/internal/grid.SquaredPairs.At",
	"repro/internal/grid.SquaredPairs.Row",
	"repro/internal/grid.RadialPairs.At",
	"repro/internal/grid.RadialPairs.Row",
	"repro/internal/grid.unitCenter",
	"repro/internal/grid.(*Squared).CellOf",
	"repro/internal/grid.(*Squared).CellCenter",
	"repro/internal/grid.(*Squared).PSS",
	"repro/internal/grid.NewSquaredTable",
	"repro/internal/grid.NewSquared",
	"repro/internal/grid.NewRadial",
	"repro/internal/grid.(*Radial).Representative",
	"repro/internal/grid.(*Radial).PSS",
	"repro/internal/irtree.(*Searcher).combine",
	"repro/internal/irtree.(*Searcher).nodeBound",
	"repro/internal/irtree.(*Searcher).Next",
	"repro/internal/dataset.UniformPoints",
	"repro/internal/dataset.GaussianPoints",
	"repro/internal/dataset.Generate",
}

// asmPackages are the packages identityPath draws from.
var asmPackages = []string{"pairs", "geo", "grid", "irtree", "dataset", "core"}

// TestNoFusedMultiplyAddOnArm64 compiles the asmPackages for arm64, where
// the compiler fuses a multiply feeding an add unless an explicit
// conversion rounds the product first, and fails if any identityPath
// function (with what it inlines) contains a fused multiply-add
// instruction.
func TestNoFusedMultiplyAddOnArm64(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles six packages for arm64")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command: %v", err)
	}
	args := []string{"build", "-o", os.DevNull}
	for _, p := range asmPackages {
		args = append(args, "-gcflags=repro/internal/"+p+"=-S")
	}
	for _, p := range asmPackages {
		args = append(args, "repro/internal/"+p)
	}
	cmd := exec.Command(gobin, args...)
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
