package main

// Startup recovery and snapshot compaction: the glue between the
// generic internal/wal log and the engine. The durable boot sequence is
//
//  1. load the newest valid snapshot-<epoch>.gob (a snapshot that fails
//     dataset.Load — e.g. its v2 payload CRC mismatches — is skipped
//     with a warning and the next-newest tried);
//  2. open the WAL (torn tails are truncated there; real corruption
//     fails the open);
//  3. build the engine at the snapshot's epoch and start serving reads,
//     with /readyz answering 503 "recovering";
//  4. replay the log records beyond the snapshot epoch through
//     Engine.Mutate;
//  5. attach the WAL to the engine and flip ready — only now are
//     mutations accepted.
//
// With -wal-required=true (the default) any recovery failure is fatal;
// with -wal-required=false the server degrades instead: it serves reads
// from the best state it reached and sheds mutations with 503, because
// accepting a mutation it cannot log would silently break the
// zero-acknowledged-loss contract.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// errReplayGap reports a WAL whose first replayable record does not
// directly follow the recovered snapshot: mutations in between are
// gone, so replaying the rest would fabricate a corpus that never
// existed.
var errReplayGap = errors.New("propserve: wal replay gap")

// loadNewestSnapshot walks the snapshots in dir newest-first and
// returns the first one that loads. Corrupt snapshots are warned about
// and skipped — an older snapshot plus a longer log replay is a valid
// recovery, a garbage corpus is not. ok is false when no snapshot
// loads (a fresh directory, or all snapshots corrupt).
func loadNewestSnapshot(dir string, logf func(string, ...any)) (d *dataset.Dataset, epoch uint64, ok bool) {
	snaps, err := wal.Snapshots(dir)
	if err != nil {
		logf("propserve: listing snapshots in %s: %v", dir, err)
		return nil, 0, false
	}
	for _, sn := range snaps {
		f, err := os.Open(sn.Path)
		if err != nil {
			logf("propserve: opening snapshot %s: %v; trying older", sn.Path, err)
			continue
		}
		d, err := dataset.Load(f)
		f.Close()
		if err != nil {
			logf("propserve: snapshot %s failed to load: %v; trying older", sn.Path, err)
			continue
		}
		return d, sn.Epoch, true
	}
	return nil, 0, false
}

// replayWAL applies the log records beyond the engine's current epoch
// through Engine.Mutate, in order, and returns how many it applied.
// Records at or below the engine's epoch are skipped — they are the
// prefix the snapshot already covers (a crash between snapshot rename
// and log truncation leaves exactly this overlap). A record that does
// not continue the epoch sequence, fails to decode, or fails to apply
// is a hard error: guessing past it would resurrect a corpus state that
// never existed.
func replayWAL(ctx context.Context, eng *engine.Engine, records []wal.Record, observe func(time.Duration)) (int, error) {
	replayed := 0
	for _, rec := range records {
		if rec.Epoch <= eng.Epoch() {
			continue
		}
		if want := eng.Epoch() + 1; rec.Epoch != want {
			return replayed, fmt.Errorf("%w: next record is epoch %d, expected %d (snapshot newer than the log start?)",
				errReplayGap, rec.Epoch, want)
		}
		m, err := engine.DecodeMutation(rec.Payload)
		if err != nil {
			return replayed, fmt.Errorf("propserve: replay epoch %d: %w", rec.Epoch, err)
		}
		start := time.Now()
		res, err := eng.Mutate(ctx, m)
		if err != nil {
			return replayed, fmt.Errorf("propserve: replay epoch %d: %w", rec.Epoch, err)
		}
		if observe != nil {
			observe(time.Since(start))
		}
		if res.Epoch != rec.Epoch {
			return replayed, fmt.Errorf("propserve: replay published epoch %d for record %d", res.Epoch, rec.Epoch)
		}
		replayed++
	}
	return replayed, nil
}

// recoverTenant runs steps 4–5 of the durable boot sequence against a
// tenant already accepting read traffic: replay the log through its
// engine, attach the WAL, flip it ready. On error the tenant is left
// not-ready for mutations; the caller decides between fatal
// (-wal-required), degraded serving (Tenant.Degrade) and rejecting the
// corpus (POST /v1/corpora).
func (s *Server) recoverTenant(ctx context.Context, tn *registry.Tenant, wlog *wal.Log, records []wal.Record) error {
	start := time.Now()
	n, err := replayWAL(ctx, tn.Eng, records, func(d time.Duration) {
		s.tel.stageSeconds.With(telemetry.StageReplay).Observe(d)
	})
	if err != nil {
		return err
	}
	tn.Eng.SetWAL(wlog)
	tn.AttachWAL(wlog)
	tn.FinishRecovery(n, tn.Eng.Epoch(), time.Since(start))
	return nil
}

// Recover is recoverTenant over the default corpus — the single-corpus
// boot path main and the durability tests drive.
func (s *Server) Recover(ctx context.Context, wlog *wal.Log, records []wal.Record) error {
	if err := s.recoverTenant(ctx, s.def, wlog, records); err != nil {
		return err
	}
	n, epoch, dur := s.def.RecoveryStats()
	s.cfg.Logf("propserve: recovery complete: %d records replayed in %v, corpus at epoch %d",
		n, dur.Round(time.Millisecond), epoch)
	return nil
}

// compactTenantWAL writes a snapshot of the tenant's currently published
// corpus epoch (temp file + rename via wal.WriteSnapshot), truncates the
// log prefix that snapshot covers, and removes older snapshots. Any step
// failing leaves the previous snapshot/log pair intact — compaction is
// pure optimisation, recovery never depends on it having run.
func (s *Server) compactTenantWAL(tn *registry.Tenant) {
	l := tn.WAL()
	if l == nil {
		return
	}
	d, epoch := tn.Eng.Snapshot()
	if _, err := wal.WriteSnapshot(l.Dir(), epoch, d.Save); err != nil {
		s.cfg.Logf("propserve: corpus %q: wal snapshot at epoch %d: %v", tn.Name, epoch, err)
		return
	}
	if err := l.CompactThrough(epoch); err != nil {
		s.cfg.Logf("propserve: corpus %q: wal compaction through epoch %d: %v", tn.Name, epoch, err)
		return
	}
	wal.RemoveSnapshotsBefore(l.Dir(), epoch, s.cfg.Logf)
	s.cfg.Logf("propserve: corpus %q: wal compacted through epoch %d (%d records remain)",
		tn.Name, epoch, l.Records())
}

// closeWALs closes every tenant's log at shutdown. Appends fsync per
// the sync policy; Close fsyncs once more, so an interval or never log
// loses nothing on a clean shutdown.
func (s *Server) closeWALs() {
	for _, tn := range s.reg.All() {
		if l := tn.WAL(); l != nil {
			if err := l.Close(); err != nil {
				s.cfg.Logf("propserve: corpus %q: closing wal: %v", tn.Name, err)
			}
		}
	}
}

// compactWAL compacts the default corpus's log (test hook).
func (s *Server) compactWAL() { s.compactTenantWAL(s.def) }

// maybeCompactAsync starts one background compaction for the tenant if
// its log has grown past the configured record threshold and no
// compaction of that tenant is already running.
func (s *Server) maybeCompactAsync(tn *registry.Tenant) {
	l := tn.WAL()
	if l == nil || s.cfg.WALCompactRecords <= 0 || l.Records() < s.cfg.WALCompactRecords {
		return
	}
	if !tn.TryCompact() {
		return
	}
	go func() {
		defer tn.EndCompact()
		s.compactTenantWAL(tn)
	}()
}

// bootCorpus builds and registers a named corpus. With dir == "" the
// corpus is volatile: gen's places, no WAL. With a directory it runs the
// same durable boot sequence as main's default corpus, synchronously:
// newest valid snapshot (falling back to gen on a fresh directory), WAL
// open (torn tails repaired), engine at the snapshot epoch, replay,
// attach. The name is registered first — reserving it atomically — and
// unregistered again on any failure.
func (s *Server) bootCorpus(ctx context.Context, name, dir string,
	gen func() (*dataset.Dataset, error), opts engine.Options) (*registry.Tenant, error) {
	var (
		d     *dataset.Dataset
		epoch uint64
		ok    bool
	)
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		d, epoch, ok = loadNewestSnapshot(dir, s.cfg.Logf)
	}
	if !ok {
		var err error
		if d, err = gen(); err != nil {
			return nil, err
		}
	}
	opts.InitialEpoch = epoch
	tn := s.newTenant(name, engine.New(d, opts))
	tn.WALDir = dir
	if err := s.reg.Add(tn); err != nil {
		return nil, err
	}
	if dir != "" {
		wlog, records, err := wal.Open(dir, s.cfg.WAL)
		if err != nil {
			s.reg.Remove(name)
			return nil, err
		}
		tn.BeginRecovery()
		if err := s.recoverTenant(ctx, tn, wlog, records); err != nil {
			wlog.Close()
			s.reg.Remove(name)
			return nil, err
		}
	}
	return tn, nil
}
