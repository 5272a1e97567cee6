package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// flagsChildEnv marks the re-exec'd child of TestBenchmarkCommandLineParses.
const flagsChildEnv = "PROPSERVE_FLAGS_CHILD"

// benchmarkFlags are the flags the benchmark's miss workloads start the
// server with, then -h so that the flag set stops after parsing them.
var benchmarkFlags = []string{"-shards", "2", "-step1-workers", "2", "-access-log=false", "-h"}

// TestFlagsHelper is the child body: it runs main's own flag parsing on
// benchmarkFlags. flag.ExitOnError exits 0 on -h once every earlier flag
// parsed and 2 on an unknown flag; main returning at all is a failure.
func TestFlagsHelper(t *testing.T) {
	if os.Getenv(flagsChildEnv) == "" {
		t.Skip("flag-parsing child process; run via TestBenchmarkCommandLineParses")
	}
	os.Args = append([]string{"propserve"}, benchmarkFlags...)
	main()
	t.Fatal("main returned instead of exiting on -h")
}

// TestBenchmarkCommandLineParses: the command line the benchmark passes
// to propserve still parses, -step1-workers included, which nothing else
// in the tests runs through main.
func TestBenchmarkCommandLineParses(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestFlagsHelper$")
	cmd.Env = append(os.Environ(), flagsChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("propserve %s: %v\n%s", strings.Join(benchmarkFlags, " "), err, out)
	}
	if !strings.Contains(string(out), "Usage of propserve") {
		t.Fatalf("propserve %s exited 0 without printing its usage:\n%s", strings.Join(benchmarkFlags, " "), out)
	}
}
