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

// unimported lists the internal packages allowed to have no non-test
// importer, each with the reason it is kept.
var unimported = map[string]string{
	"repro/internal/invindex": "kept until the sharded-retrieval work adopts or deletes it (ROADMAP item 2)",
}

// goList runs `go list` with args from the module root and returns its
// output lines. It fails rather than skips when go is not on PATH: a
// budget check that silently skips guards nothing.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go not found on PATH: %v", err)
	}
	out, err := exec.Command(goBin, append([]string{"list"}, args...)...).Output()
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

func TestEveryInternalPackageIsImported(t *testing.T) {
	imported := map[string]bool{}
	for _, p := range goList(t, "-f", `{{join .Imports " "}}`, "./...") {
		imported[p] = true
	}
	for _, p := range goList(t, "./internal/...") {
		if imported[p] {
			if _, ok := unimported[p]; ok {
				t.Errorf("%s is imported now; drop it from the allow-list", p)
			}
			continue
		}
		if _, ok := unimported[p]; !ok {
			t.Errorf("%s has no non-test importer in ./...", p)
		}
	}
}
