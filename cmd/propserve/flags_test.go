package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

// flagsChildEnv marks the re-exec'd child of TestBenchmarkCommandLineParses
// and TestBadFlagsExit2; flagsArgsEnv, when set, replaces benchmarkFlags
// with its space-separated arguments.
const (
	flagsChildEnv = "PROPSERVE_FLAGS_CHILD"
	flagsArgsEnv  = "PROPSERVE_FLAGS_ARGS"
)

// benchmarkFlags are the flags the benchmark's miss workloads start the
// server with, then -h so that the flag set stops after parsing them.
var benchmarkFlags = []string{"-shards", "2", "-step1-workers", "2", "-access-log=false", "-h"}

// TestFlagsHelper is the child body: it runs main's own flag parsing on
// benchmarkFlags. main exits 0 on -h once every earlier flag parsed and
// 2 on a flag it cannot use; main returning at all is a failure.
func TestFlagsHelper(t *testing.T) {
	if os.Getenv(flagsChildEnv) == "" {
		t.Skip("flag-parsing child process; run via TestBenchmarkCommandLineParses")
	}
	args := benchmarkFlags
	if a := os.Getenv(flagsArgsEnv); a != "" {
		args = strings.Fields(a)
	}
	os.Args = append([]string{"propserve"}, args...)
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

// TestBadFlagsExit2: main exits 2, naming the flag, on a -shards or
// -wal-sync value it cannot use and on an unknown flag — before it
// builds any corpus.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct{ args, stderr string }{
		{"-shards 65", "propserve: -shards: shards 65 out of range"},
		{"-shards -1", "propserve: -shards: shards -1 out of range"},
		{"-wal-sync sometimes", "propserve: -wal-sync:"},
		{"-no-such-flag", "flag provided but not defined: -no-such-flag"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFlagsHelper$")
		cmd.Env = append(os.Environ(), flagsChildEnv+"=1", flagsArgsEnv+"="+tc.args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("propserve %s: %v, want exit status 2\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.stderr) {
			t.Errorf("propserve %s: output lacks %q:\n%s", tc.args, tc.stderr, out)
		}
	}
}

// TestFlagsReachTheirFields sets each flag to a value other than its
// default and checks that exactly the one field it feeds changed.
// -step1-workers is accepted and feeds nothing.
func TestFlagsReachTheirFields(t *testing.T) {
	base, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		set  func(*bootConfig)
	}{
		{[]string{"-data", "db.gob"}, func(bc *bootConfig) { bc.data = "db.gob" }},
		{[]string{"-addr", "127.0.0.1:1"}, func(bc *bootConfig) { bc.addr = "127.0.0.1:1" }},
		{[]string{"-query-timeout", "3s"}, func(bc *bootConfig) { bc.cfg.QueryTimeout = 3 * time.Second }},
		{[]string{"-max-inflight", "3"}, func(bc *bootConfig) { bc.cfg.MaxInFlight = 3 }},
		{[]string{"-max-queue", "4"}, func(bc *bootConfig) { bc.cfg.MaxQueue = 4 }},
		{[]string{"-queue-wait", "5ms"}, func(bc *bootConfig) { bc.cfg.QueueWait = 5 * time.Millisecond }},
		{[]string{"-max-K", "77"}, func(bc *bootConfig) { bc.cfg.MaxK = 77 }},
		{[]string{"-cache-entries", "9"}, func(bc *bootConfig) { bc.cfg.CacheEntries = 9 }},
		{[]string{"-max-batch", "10"}, func(bc *bootConfig) { bc.cfg.MaxBatch = 10 }},
		{[]string{"-batch-workers", "11"}, func(bc *bootConfig) { bc.cfg.BatchWorkers = 11 }},
		{[]string{"-degrade-budget", "12ms"}, func(bc *bootConfig) { bc.cfg.DegradeBudget = 12 * time.Millisecond }},
		{[]string{"-debug-addr", "127.0.0.1:2"}, func(bc *bootConfig) { bc.debugAddr = "127.0.0.1:2" }},
		{[]string{"-access-log=false"}, func(bc *bootConfig) { bc.cfg.AccessLog = nil }},
		{[]string{"-enable-explain"}, func(bc *bootConfig) { bc.cfg.EnableExplain = true }},
		{[]string{"-enable-mutation"}, func(bc *bootConfig) { bc.cfg.EnableMutation = true }},
		{[]string{"-max-mutation-batch", "13"}, func(bc *bootConfig) { bc.cfg.MaxMutationBatch = 13 }},
		{[]string{"-slow-query-ms", "14"}, func(bc *bootConfig) {
			bc.cfg.SlowQuery, bc.cfg.SlowQueryLog = 14*time.Millisecond, os.Stderr
		}},
		{[]string{"-slo=false"}, func(bc *bootConfig) { bc.cfg.DisableSLO = true }},
		{[]string{"-slo-hit-p99", "15ms"}, func(bc *bootConfig) { bc.cfg.SLOHitP99 = 15 * time.Millisecond }},
		{[]string{"-slo-miss-p99", "16ms"}, func(bc *bootConfig) { bc.cfg.SLOMissP99 = 16 * time.Millisecond }},
		{[]string{"-slo-batch-p99", "17ms"}, func(bc *bootConfig) { bc.cfg.SLOBatchP99 = 17 * time.Millisecond }},
		{[]string{"-slo-mutate-p99", "18ms"}, func(bc *bootConfig) { bc.cfg.SLOMutateP99 = 18 * time.Millisecond }},
		{[]string{"-slo-availability", "0.5"}, func(bc *bootConfig) { bc.cfg.SLOAvailability = 0.5 }},
		{[]string{"-wal-dir", "/var/wal"}, func(bc *bootConfig) { bc.walDir = "/var/wal" }},
		{[]string{"-wal-sync", "never"}, func(bc *bootConfig) { bc.cfg.WAL.Sync = wal.SyncNever }},
		{[]string{"-wal-sync-interval", "19ms"}, func(bc *bootConfig) { bc.cfg.WAL.SyncInterval = 19 * time.Millisecond }},
		{[]string{"-wal-required=false"}, func(bc *bootConfig) { bc.walRequired = false }},
		{[]string{"-wal-compact-records", "20"}, func(bc *bootConfig) { bc.cfg.WALCompactRecords = 20 }},
		{[]string{"-shards", "21"}, func(bc *bootConfig) { bc.cfg.Shards = 21 }},
		{[]string{"-step1-workers", "22"}, func(*bootConfig) {}},
		{[]string{"-traces=false"}, func(bc *bootConfig) { bc.cfg.DisableTraces = true }},
		{[]string{"-trace-sample", "0.25"}, func(bc *bootConfig) { bc.cfg.TraceSample = 0.25 }},
		{[]string{"-trace-bytes", "23"}, func(bc *bootConfig) { bc.cfg.TraceBudget = 23 }},
		{[]string{"-trace-export", "traces.jsonl"}, func(bc *bootConfig) { bc.traceExport = "traces.jsonl" }},
		{[]string{"-corpora-dir", "/var/corpora"}, func(bc *bootConfig) { bc.cfg.CorporaDir = "/var/corpora" }},
	}

	// Every flag the usage lists has a row.
	var usage bytes.Buffer
	if _, err := parseFlags([]string{"-h"}, &usage); err == nil {
		t.Fatal("-h parsed without flag.ErrHelp")
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[strings.SplitN(tc.args[0], "=", 2)[0]] = true
	}
	flags := regexp.MustCompile(`(?m)^  (-\S+)`).FindAllStringSubmatch(usage.String(), -1)
	if len(flags) != len(cases) {
		t.Errorf("usage lists %d flags, the table has %d rows", len(flags), len(cases))
	}
	for _, f := range flags {
		if !covered[f[1]] {
			t.Errorf("flag %s has no row", f[1])
		}
	}

	for _, tc := range cases {
		got, err := parseFlags(tc.args, io.Discard)
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		want := base
		tc.set(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v:\n got %+v\nwant %+v", tc.args, got, want)
		}
	}
}
