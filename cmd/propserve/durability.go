package main

// Corpus boot and snapshot compaction: the glue between the generic
// internal/wal log and the engine. Every corpus boots in the same two
// steps — the default one, those found under -corpora-dir at startup
// and those created through POST /v1/corpora alike.
//
// Open (openCorpus):
//  1. with a log directory, load the newest valid snapshot-<epoch>.gob
//     (a snapshot that fails dataset.Load — e.g. its v2 payload CRC
//     mismatches — is skipped with a warning and the next-newest
//     tried); without one, or when none loads, call the corpus's
//     generator;
//  2. build the engine at the snapshot's epoch and register the tenant —
//     not ready when durable, so it serves reads at once while /readyz
//     answers 503 "recovering" and its mutations are shed with 503;
//  3. open the WAL (torn tails are truncated there; real corruption
//     fails the open).
// Recover (recoverCorpus):
//  4. replay the log records beyond the snapshot epoch through
//     Engine.Mutate;
//  5. attach the WAL to the engine and flip ready — only now are
//     mutations accepted.
//
// At startup main opens every corpus before it recovers any
// (Server.boot), so /readyz stays 503 until all of them have replayed.
// A named corpus that fails either step is unregistered: skipped at
// boot, refused to the POST. For the default corpus any failure is
// fatal with -wal-required=true (the default); with
// -wal-required=false the server degrades instead: it serves reads from
// the best state it reached and sheds mutations with 503, because
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
		observe(time.Since(start))
		if res.Epoch != rec.Epoch {
			return replayed, fmt.Errorf("propserve: replay published epoch %d for record %d", res.Epoch, rec.Epoch)
		}
		replayed++
	}
	return replayed, nil
}

// openedCorpus is a registered corpus between the two boot steps: its
// log is open and the records past its snapshot are not yet replayed.
// log is nil for a volatile corpus, which is ready once it is open.
type openedCorpus struct {
	tn      *registry.Tenant
	log     *wal.Log
	records []wal.Record
}

// openCorpus is step one of every corpus boot (steps 1–3 above). gen
// supplies the corpus when dir is "" or holds no snapshot that loads.
// Opening the corpus named "default" makes it the tenant the un-scoped
// routes address. On error nothing stays registered, except when only
// the WAL open failed: then the opened corpus is returned with the
// error, registered and not ready, for the caller to degrade or
// abandon.
func (s *Server) openCorpus(name, dir string,
	gen func() (*dataset.Dataset, error), opts engine.Options) (*openedCorpus, error) {
	var (
		d  *dataset.Dataset
		ok bool
	)
	if dir != "" {
		if d, opts.InitialEpoch, ok = loadNewestSnapshot(dir, s.cfg.Logf); ok {
			s.cfg.Logf("propserve: corpus %q: recovered snapshot at epoch %d (%d places)",
				name, opts.InitialEpoch, len(d.Places))
		}
	}
	if !ok {
		var err error
		if d, err = gen(); err != nil {
			return nil, err
		}
	}
	tn := s.newTenant(name, engine.New(d, opts))
	tn.WALDir = dir
	if dir != "" {
		tn.BeginRecovery()
	}
	if err := s.reg.Add(tn); err != nil {
		return nil, err
	}
	if name == registry.DefaultName {
		s.def = tn
	}
	oc := &openedCorpus{tn: tn}
	if dir == "" {
		return oc, nil
	}
	var err error
	oc.log, oc.records, err = wal.Open(dir, s.cfg.WAL)
	return oc, err
}

// recoverCorpus is step two (steps 4–5 above), run while the tenant
// already serves reads: replay the log through its engine, attach the
// WAL, flip it ready. A volatile corpus has nothing to recover. On
// error the tenant is left registered and not ready for mutations; the
// caller degrades or abandons it.
func (s *Server) recoverCorpus(ctx context.Context, oc *openedCorpus) error {
	if oc.log == nil {
		return nil
	}
	tn, start := oc.tn, time.Now()
	n, err := replayWAL(ctx, tn.Eng, oc.records, func(d time.Duration) {
		s.tel.stageSeconds.With(telemetry.StageReplay).Observe(d)
	})
	if err != nil {
		return err
	}
	tn.AttachWAL(oc.log)
	dur := time.Since(start)
	tn.FinishRecovery(n, tn.Eng.Epoch(), dur)
	s.cfg.Logf("propserve: corpus %q: recovery complete: %d records replayed in %v, corpus at epoch %d",
		tn.Name, n, dur.Round(time.Millisecond), tn.Eng.Epoch())
	return nil
}

// generated is the generator of a named corpus: seed's DBpediaLike
// corpus of that many places.
func generated(seed int64, places int) func() (*dataset.Dataset, error) {
	return func() (*dataset.Dataset, error) {
		c := dataset.DBpediaLike(seed)
		c.Places = places
		return dataset.Generate(c)
	}
}

// abandon unregisters a corpus that failed to boot and closes its log;
// its files stay on disk for inspection.
func (s *Server) abandon(oc *openedCorpus) {
	if oc.log != nil {
		oc.log.Close()
	}
	s.reg.Remove(oc.tn.Name)
}

// bootCorpus opens and recovers one named corpus, the path of POST
// /v1/corpora: volatile with dir == "", durable under dir otherwise.
// Registering reserves the name atomically; any failure unregisters it
// again.
func (s *Server) bootCorpus(ctx context.Context, name, dir string,
	gen func() (*dataset.Dataset, error), opts engine.Options) (*registry.Tenant, error) {
	oc, err := s.openCorpus(name, dir, gen, opts)
	if err == nil {
		err = s.recoverCorpus(ctx, oc)
	}
	if err != nil {
		if oc != nil {
			s.abandon(oc)
		}
		return nil, err
	}
	return oc.tn, nil
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
