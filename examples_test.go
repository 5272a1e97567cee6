package repro_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the examples' output goldens from the current code")

// examples are the programs under examples/ whose output is pinned.
var examples = []string{"quickstart", "museums", "geotags", "rdfplaces", "roadnet"}

// duration matches a Go-formatted time.Duration: the timings rdfplaces
// prints are the only part of any example's output that varies by run.
var duration = regexp.MustCompile(`[0-9.]+(ns|µs|ms|s)\b`)

// TestExamplesOutput builds every example, runs it and compares its
// stdout, with each duration masked, with examples/<name>/testdata/
// output.golden. The selections the examples print come from Step 1 and
// Step 2 end to end, so any change to them shows up here. Run with
// -update to rewrite the goldens. The examples are built in a child
// process, which go test's result cache does not see: after editing only
// an example (or internal/roadnet), run with -count=1.
func TestExamplesOutput(t *testing.T) {
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, ex := range examples {
		args = append(args, "./examples/"+ex)
	}
	if out, err := exec.Command(goBin(t), args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, ex := range examples {
		t.Run(ex, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, ex))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", ex, err, stderr.Bytes())
			}
			got := duration.ReplaceAll(stdout.Bytes(), []byte("<duration>"))
			golden := filepath.Join("examples", ex, "testdata", "output.golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s output differs from %s:\n got:\n%s\nwant:\n%s", ex, golden, got, want)
			}
		})
	}
}
