package repro_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// servingPackages is the package budget of the serving binary: every
// repro/ package in `go list -deps ./cmd/propserve`. A package that joins
// the binary must be added here on purpose, not arrive as a side effect.
var servingPackages = []string{
	"repro/cmd/propserve",
	"repro/internal/core",
	"repro/internal/dataset",
	"repro/internal/engine",
	"repro/internal/explain",
	"repro/internal/geo",
	"repro/internal/grid",
	"repro/internal/irtree",
	"repro/internal/jsonx",
	"repro/internal/metrics",
	"repro/internal/pairs",
	"repro/internal/rdf",
	"repro/internal/registry",
	"repro/internal/resilience",
	"repro/internal/slo",
	"repro/internal/telemetry",
	"repro/internal/textctx",
	"repro/internal/tracestore",
	"repro/internal/wal",
}

// unimported lists the internal packages allowed outside both the serving
// binary and the figure harness, each with the reason it is kept.
var unimported = map[string]string{
	"repro/internal/invindex": "kept until the sharded-retrieval work adopts or deletes it (ROADMAP item 2)",
	"repro/internal/roadnet":  "paper's future-work network Ptolemy, run by examples/roadnet through core's SpatialCustom hook",
}

// goBin returns the go tool's path. It fails rather than skips when go
// is not on PATH: a check that silently skips guards nothing.
func goBin(t *testing.T) string {
	t.Helper()
	bin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go not found on PATH: %v", err)
	}
	return bin
}

// goList runs `go list` with args from the module root and returns its
// output lines.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	out, err := exec.Command(goBin(t), append([]string{"list"}, args...)...).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list %v: %v\n%s", args, err, ee.Stderr)
		}
		t.Fatalf("go list %v: %v", args, err)
	}
	return strings.Fields(string(out))
}

func TestServingBinaryPackageBudget(t *testing.T) {
	var got []string
	for _, p := range goList(t, "-deps", "./cmd/propserve") {
		if strings.HasPrefix(p, "repro/") {
			got = append(got, p)
		}
	}
	slices.Sort(got)
	want := slices.Clone(servingPackages)
	slices.Sort(want)
	for _, p := range got {
		if !slices.Contains(want, p) {
			t.Errorf("%s is linked into propserve but not in the package budget", p)
		}
	}
	for _, p := range want {
		if !slices.Contains(got, p) {
			t.Errorf("%s is in the package budget but no longer linked into propserve", p)
		}
	}
}

// TestEveryInternalPackageIsImported: every internal package is linked
// into the serving binary or the figure harness, or is listed in
// unimported. An example does not count as an importer, so a package only
// an example runs needs a listed reason to stay.
func TestEveryInternalPackageIsImported(t *testing.T) {
	used := map[string]bool{}
	for _, p := range goList(t, "-deps", "./cmd/propserve", "./cmd/experiments") {
		used[p] = true
	}
	for _, p := range goList(t, "./internal/...") {
		if used[p] {
			if _, ok := unimported[p]; ok {
				t.Errorf("%s is linked into propserve or experiments now; drop it from the allow-list", p)
			}
			continue
		}
		if _, ok := unimported[p]; !ok {
			t.Errorf("%s is linked into neither propserve nor experiments", p)
		}
	}
}

// TestBenchmarkModuleCompiles vets the nested benchmarks module, which
// `go build ./...` and `go test ./...` at the root never compile: it
// builds against repro/internal, so a change there can break the
// benchmark without failing anything else.
func TestBenchmarkModuleCompiles(t *testing.T) {
	cmd := exec.Command(goBin(t), "vet", "./...")
	cmd.Dir = "benchmarks"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmarks/: %v\n%s", err, out)
	}
}
