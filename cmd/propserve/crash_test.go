//go:build !windows

package main

// The kill-recovery suite: a child process (this test binary re-exec'd
// into TestCrashHelper) applies mutation batches against a real WAL,
// fsyncs an acknowledgement line after every successful batch, and
// SIGKILLs itself at an injected fault point — before the append's
// write, mid-record, before the fsync, between batches, or inside
// snapshot compaction. The parent then recovers from the surviving
// directory and checks the durability contract: the recovered epoch
// covers every acknowledged batch, nothing beyond the last append
// survives, and the corpus equals a never-crashed reference at the
// recovered epoch — no torn batch, no lost acknowledged mutation.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/engine"
	"repro/internal/wal"
)

const (
	crashChildEnv = "PROPSERVE_CRASH_CHILD"
	crashDirEnv   = "PROPSERVE_CRASH_DIR"
	crashOpEnv    = "PROPSERVE_CRASH_OP"
	crashAfterEnv = "PROPSERVE_CRASH_AFTER"
)

// crashBatch must be a pure function of gen: the parent rebuilds the
// reference history from it.
func crashBatch(gen int) engine.Mutation { return beaconBatch(gen, 3) }

// TestCrashHelper is the child body; it only runs re-exec'd with the
// crash environment set and never returns normally when a fault op is
// configured (SIGKILL).
func TestCrashHelper(t *testing.T) {
	if os.Getenv(crashChildEnv) == "" {
		t.Skip("kill-recovery child process; run via TestCrashRecovery")
	}
	dir := os.Getenv(crashDirEnv)
	op := os.Getenv(crashOpEnv)
	after, err := strconv.Atoi(os.Getenv(crashAfterEnv))
	if err != nil {
		t.Fatalf("bad %s: %v", crashAfterEnv, err)
	}

	ack, err := os.OpenFile(filepath.Join(dir, "acked"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}

	// The server's own durable boot: open, then recover.
	srv, oc, err := openDurable(t, dir, Config{})
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	if err := srv.recoverCorpus(context.Background(), oc); err != nil {
		t.Fatalf("child replay: %v", err)
	}
	eng := oc.tn.Eng

	armed := false
	restore := wal.SetFaultHook(func(got string) error {
		if armed && got == op {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable; the kill is not survivable
		}
		return nil
	})
	defer restore()

	// Acknowledge `after` batches, then run one more with the fault armed
	// (for append ops the process dies inside that Mutate call).
	start := int(eng.Epoch()) + 1
	for gen := start; gen <= after+1; gen++ {
		armed = gen > after && strings.HasPrefix(op, "append:")
		res, err := eng.Mutate(context.Background(), crashBatch(gen))
		if err != nil {
			t.Fatalf("child mutate gen %d: %v", gen, err)
		}
		fmt.Fprintf(ack, "%d\n", res.Epoch)
		if err := ack.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	switch {
	case strings.HasPrefix(op, "snapshot:") || strings.HasPrefix(op, "compact:"):
		armed = true
		srv.compactTenantWAL(oc.tn) // logs, not returns, a failure: then the fault never fired
	case op == "":
		// Kill between batches: everything written so far is acknowledged.
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
	t.Fatalf("fault %q never fired; the child survived", op)
}

// maxAcked reads the highest acknowledged epoch the child recorded.
func maxAcked(t *testing.T, dir string) uint64 {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "acked"))
	if err != nil {
		t.Fatalf("no ack file: %v", err)
	}
	var max uint64
	for _, line := range strings.Fields(string(b)) {
		v, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			t.Fatalf("bad ack line %q", line)
		}
		if v > max {
			max = v
		}
	}
	return max
}

func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and SIGKILLs child processes")
	}
	cases := []struct {
		name  string
		op    string
		after int
	}{
		{"kill-between-batches", "", 3},
		{"kill-before-append-write", wal.OpAppendWrite, 2},
		{"kill-mid-record", wal.OpAppendMid, 2},
		{"kill-before-fsync", wal.OpAppendSync, 2},
		{"kill-before-snapshot-rename", wal.OpSnapshotRename, 3},
		{"kill-during-compact-write", wal.OpCompactWrite, 3},
		{"kill-before-compact-rename", wal.OpCompactRename, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestCrashHelper$", "-test.v")
			cmd.Env = append(os.Environ(),
				crashChildEnv+"=1",
				crashDirEnv+"="+dir,
				crashOpEnv+"="+tc.op,
				crashAfterEnv+"="+strconv.Itoa(tc.after),
			)
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("child exited cleanly; the fault never killed it:\n%s", out)
			}
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ProcessState.ExitCode() == 1 {
				// Exit code 1 is a test failure inside the child, not the
				// SIGKILL (-1) the fault produces.
				t.Fatalf("child failed before the kill: %v\n%s", err, out)
			}

			acked := maxAcked(t, dir)
			if acked < uint64(tc.after) {
				t.Fatalf("child acknowledged only %d batches before dying, want >= %d", acked, tc.after)
			}

			// Recover through the server boot, then verify the contract.
			srv, oc, err := openDurable(t, dir, Config{})
			if err != nil {
				t.Fatalf("recovery open after %s: %v", tc.name, err)
			}
			if err := srv.recoverCorpus(context.Background(), oc); err != nil {
				t.Fatalf("recovery replay after %s: %v", tc.name, err)
			}
			eng := oc.tn.Eng
			got := eng.Epoch()
			if got < acked {
				t.Fatalf("recovered epoch %d lost acknowledged epoch %d", got, acked)
			}
			// At most the one in-flight unacknowledged batch may have made
			// it to disk before the kill.
			if got > acked+1 {
				t.Fatalf("recovered epoch %d is past any batch the child attempted (acked %d)", got, acked)
			}

			// Equivalence: the recovered corpus must match a never-crashed
			// engine fed the same history up to the recovered epoch — a torn
			// or half-applied batch cannot pass this.
			ref := engine.New(durTestData(t, 9, 300), engine.Options{})
			for gen := 1; gen <= int(got); gen++ {
				if _, err := ref.Mutate(context.Background(), crashBatch(gen)); err != nil {
					t.Fatal(err)
				}
			}
			want, have := ref.Corpus(), eng.Corpus()
			if len(want.Places) != len(have.Places) {
				t.Fatalf("recovered corpus has %d places, reference %d", len(have.Places), len(want.Places))
			}
			wantState := make(map[string]string, len(want.Places))
			for _, p := range want.Places {
				wantState[p.Label] = fmt.Sprintf("%v/%d", p.Loc, p.Context.Len())
			}
			for _, p := range have.Places {
				if wantState[p.Label] != fmt.Sprintf("%v/%d", p.Loc, p.Context.Len()) {
					t.Fatalf("place %q diverges from the reference after recovery", p.Label)
				}
			}

			// The recovered log (attached by recovery) keeps accepting the
			// next epoch.
			res, err := eng.Mutate(context.Background(), crashBatch(int(got)+1))
			if err != nil || res.Epoch != got+1 {
				t.Fatalf("post-recovery mutate: %v (epoch %v, want %d)", err, res, got+1)
			}
		})
	}
}
