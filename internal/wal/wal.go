// Package wal is the durability layer under the live corpus: a
// length-prefixed, CRC32C-checksummed append-only log of corpus
// mutations plus epoch-named snapshot files. The engine appends each
// mutation batch to the log *before* publishing its epoch, so a process
// killed at any moment recovers by loading the newest valid snapshot
// and replaying the log suffix — every acknowledged batch survives,
// and a batch can only ever be recovered whole (epoch atomicity is
// preserved across crashes, not just across concurrent readers).
//
// On-disk layout (one directory):
//
//	wal.log               append-only record log (see record framing below)
//	snapshot-<epoch>.gob  dataset.Save output for the corpus at <epoch>
//
// Record framing: an 8-byte file magic, then per record
//
//	[4B little-endian length n][4B CRC32C of body][body: 8B epoch + payload]
//
// where n = len(body). A truncated or checksum-failing *final* record is
// a torn tail — the expected residue of a crash mid-append — and is
// dropped with a warning and truncated away. Any earlier corruption
// (a checksum failure followed by more data, an invalid length, an
// out-of-order epoch) cannot be explained by a torn write and is a hard
// ErrCorrupt: recovery must not guess its way past real damage.
//
// Fsync policy is configurable (SyncAlways / SyncInterval / SyncNever):
// "always" gives zero acknowledged-batch loss on power failure at the
// cost of one fsync per mutation (propbench's wal.append_sync_us), the
// other two trade a bounded window of acknowledged batches for
// throughput. Transient append failures are retried with bounded
// backoff (resilience.Retry); a failure that leaves the file state
// unknowable (an fsync error, a failed truncate-back after a partial
// write) latches the log broken so no later append can silently land
// after garbage.
package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
)

// ErrCorrupt marks damage the log cannot safely skip: a mid-log
// checksum failure, invalid record framing, or epochs out of order.
// A torn tail is NOT ErrCorrupt — it is repaired silently with a
// warning.
var ErrCorrupt = errors.New("wal: log corrupt")

// ErrBroken is wrapped by every Append after a failure left the file
// state unknowable (fsync error, failed truncate-back). The log sheds
// writes until the process restarts and recovery re-establishes a
// known-good tail.
var ErrBroken = errors.New("wal: log broken")

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged batch
	// survives kill -9 and power loss.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background ticker: a crash loses at most
	// the last interval's acknowledged batches.
	SyncInterval
	// SyncNever leaves flushing to the OS: a crash loses whatever the
	// page cache held.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy maps the -wal-sync flag values onto a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (have always, interval, never)", s)
}

// Options configures a Log. Zero values select the documented defaults.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the background fsync period under SyncInterval
	// (default 100ms).
	SyncInterval time.Duration
	// Retry bounds the append retry loop on transient write errors
	// (default 3 attempts, 5ms base backoff, 100ms cap).
	Retry resilience.RetryPolicy
	// MaxRecordBytes rejects absurd record lengths during both append
	// and scan (default 64 MiB). A scanned length beyond it is ErrCorrupt.
	MaxRecordBytes int
	// Logf receives torn-tail warnings and background-sync errors
	// (default log.Printf).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.Retry.Attempts == 0 {
		o.Retry = resilience.RetryPolicy{Attempts: 3, Base: 5 * time.Millisecond, Max: 100 * time.Millisecond}
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 64 << 20
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Record is one logged mutation batch: the epoch it published and the
// serialised batch payload.
type Record struct {
	Epoch   uint64
	Payload []byte
}

const (
	logName   = "wal.log"
	fileMagic = "PROPWAL\x01"
	recHeader = 8 // 4B length + 4B CRC32C
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is an open write-ahead log. It is safe for concurrent use;
// appends are serialised internally.
type Log struct {
	dir string
	opt Options

	mu      sync.Mutex
	f       *os.File
	size    int64 // end offset of the last valid record
	records int   // records currently in the file
	last    uint64
	broken  error // latched unrecoverable-state error

	appends     atomic.Uint64
	fsyncs      atomic.Uint64
	errs        atomic.Uint64
	retries     atomic.Uint64
	compactions atomic.Uint64
	tornDrops   atomic.Uint64

	stopSync chan struct{}
	syncDone chan struct{}
}

// Stats is a point-in-time snapshot of a Log's counters and state.
type Stats struct {
	// Appends counts records durably accepted; Fsyncs successful fsync
	// calls; Errors failed I/O operations (before retry); Retries
	// re-attempted appends; Compactions completed prefix truncations;
	// TornDrops torn-tail records dropped during open.
	Appends, Fsyncs, Errors, Retries, Compactions, TornDrops uint64
	// Records and Bytes describe the current log file; LastEpoch is the
	// newest logged epoch (0 when the log is empty).
	Records   int
	Bytes     int64
	LastEpoch uint64
	// Broken reports a latched unrecoverable failure; BrokenReason is
	// its message.
	Broken       bool
	BrokenReason string
}

// Open opens (creating if absent) the log in dir and scans it: valid
// records are returned for replay, a torn tail is truncated away with a
// warning, and real corruption fails with ErrCorrupt. Stray temp files
// from an interrupted compaction or snapshot are removed.
func Open(dir string, opt Options) (*Log, []Record, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	removeStrayTemps(dir, opt.Logf)

	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	recs, valid, warn, serr := scanLog(data, opt.MaxRecordBytes)
	if serr != nil {
		f.Close()
		return nil, nil, serr
	}
	l := &Log{dir: dir, opt: opt, f: f}
	if warn != "" {
		opt.Logf("wal: %s at offset %d of %s; dropping torn tail (%d bytes)", warn, valid, path, int64(len(data))-valid)
		l.tornDrops.Add(1)
	}
	if valid < int64(len(fileMagic)) {
		// Fresh log, or a crash during creation left a partial magic:
		// (re)write the header so a later torn append cannot be mistaken
		// for a headerless file.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate partial magic: %w", err)
		}
		if _, err := f.WriteAt([]byte(fileMagic), 0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: write magic: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: sync magic: %w", err)
		}
		valid = int64(len(fileMagic))
	} else if valid != int64(len(data)) {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: sync after truncate: %w", err)
		}
	}
	l.size = valid
	l.records = len(recs)
	if len(recs) > 0 {
		l.last = recs[len(recs)-1].Epoch
	}
	if opt.Sync == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, recs, nil
}

// scanLog walks the framed records in data. It returns the valid
// records, the byte length of the valid prefix, a non-empty warning when
// a torn tail was dropped, and ErrCorrupt for damage that is not a torn
// tail.
func scanLog(data []byte, maxRecord int) (recs []Record, valid int64, warn string, err error) {
	if len(data) == 0 {
		return nil, 0, "", nil
	}
	if len(data) < len(fileMagic) {
		// The file exists but even the magic is incomplete: a crash
		// during creation. Start over.
		return nil, 0, "truncated file magic", nil
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return nil, 0, "", fmt.Errorf("%w: bad file magic", ErrCorrupt)
	}
	off := len(fileMagic)
	for off < len(data) {
		rem := len(data) - off
		if rem < recHeader {
			return recs, int64(off), "truncated record header", nil
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n < 8 || n > maxRecord {
			// A torn write is always a strict prefix of one append, so the
			// length field of a partially persisted record is either absent
			// (rem < recHeader above) or correct. A nonsense length is bit
			// damage, and framing damage cannot be skipped.
			return nil, 0, "", fmt.Errorf("%w: record at offset %d has invalid length %d", ErrCorrupt, off, n)
		}
		if rem < recHeader+n {
			return recs, int64(off), "truncated record body", nil
		}
		body := data[off+recHeader : off+recHeader+n]
		if crc32.Checksum(body, castagnoli) != sum {
			if off+recHeader+n == len(data) {
				return recs, int64(off), "checksum mismatch in final record", nil
			}
			return nil, 0, "", fmt.Errorf("%w: checksum mismatch at offset %d (not the final record)", ErrCorrupt, off)
		}
		epoch := binary.LittleEndian.Uint64(body)
		if len(recs) > 0 && epoch <= recs[len(recs)-1].Epoch {
			return nil, 0, "", fmt.Errorf("%w: epoch %d at offset %d not after %d", ErrCorrupt, epoch, off, recs[len(recs)-1].Epoch)
		}
		recs = append(recs, Record{Epoch: epoch, Payload: append([]byte(nil), body[8:]...)})
		off += recHeader + n
	}
	return recs, int64(off), "", nil
}

func encodeRecord(epoch uint64, payload []byte) []byte {
	n := 8 + len(payload)
	buf := make([]byte, recHeader+n)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(n))
	binary.LittleEndian.PutUint64(buf[recHeader:recHeader+8], epoch)
	copy(buf[recHeader+8:], payload)
	binary.LittleEndian.PutUint32(buf[4:recHeader], crc32.Checksum(buf[recHeader:], castagnoli))
	return buf
}

// Append durably logs (epoch, payload) as one record. Transient write
// failures are retried with bounded backoff after truncating any
// partial bytes back off the file; a failure that leaves the tail state
// unknowable latches the log broken (ErrBroken) so no later append can
// land after garbage. Append returns only after the record is written
// (and, under SyncAlways, fsynced) — the caller may acknowledge the
// mutation the moment Append returns nil.
func (l *Log) Append(ctx context.Context, epoch uint64, payload []byte) error {
	if len(payload)+8 > l.opt.MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), l.opt.MaxRecordBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("%w: %v", ErrBroken, l.broken)
	}
	if epoch <= l.last {
		return fmt.Errorf("wal: epoch %d not after last logged epoch %d", epoch, l.last)
	}
	buf := encodeRecord(epoch, payload)
	attempt := 0
	err := resilience.Retry(ctx, l.opt.Retry, func() error {
		attempt++
		if attempt > 1 {
			l.retries.Add(1)
		}
		werr := l.writeRecord(buf)
		if werr == nil {
			return nil
		}
		l.errs.Add(1)
		// Truncate any partially written bytes back off so a retry (or a
		// later append) starts from the last valid record, never after
		// garbage. Failing THAT leaves the tail unknowable: latch broken.
		if terr := l.f.Truncate(l.size); terr != nil {
			l.broken = fmt.Errorf("truncate-back after failed append: %v (append error: %v)", terr, werr)
			return resilience.Permanent(fmt.Errorf("%w: %v", ErrBroken, l.broken))
		}
		return werr
	})
	if err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(buf))
	l.records++
	l.last = epoch
	l.appends.Add(1)
	if l.opt.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			// After a failed fsync the kernel may have dropped the dirty
			// pages; whether the record is on disk is unknowable. Latch
			// broken: the caller must not acknowledge, and no later append
			// may assume this tail exists.
			l.errs.Add(1)
			l.broken = fmt.Errorf("fsync after append: %v", err)
			return fmt.Errorf("%w: %v", ErrBroken, l.broken)
		}
	}
	return nil
}

// writeRecord writes buf at the current tail. When a fault hook is
// installed the write is split in two so tests can kill the process (or
// fail the second half) with a genuinely torn record on disk.
func (l *Log) writeRecord(buf []byte) error {
	if hookInstalled() {
		if err := fault(OpAppendWrite); err != nil {
			var pw *PartialWrite
			if errors.As(err, &pw) {
				n := pw.N
				if n > len(buf) {
					n = len(buf)
				}
				l.f.WriteAt(buf[:n], l.size)
				return err
			}
			return err
		}
		half := len(buf) / 2
		if _, err := l.f.WriteAt(buf[:half], l.size); err != nil {
			return err
		}
		if err := fault(OpAppendMid); err != nil {
			return err
		}
		if _, err := l.f.WriteAt(buf[half:], l.size+int64(half)); err != nil {
			return err
		}
		return nil
	}
	_, err := l.f.WriteAt(buf, l.size)
	return err
}

// Sync flushes the log to stable storage (a no-op risk-wise under
// SyncAlways, the heartbeat under SyncInterval).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("%w: %v", ErrBroken, l.broken)
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := fault(OpAppendSync); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.fsyncs.Add(1)
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opt.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			l.mu.Lock()
			if l.broken == nil {
				if err := l.syncLocked(); err != nil {
					l.errs.Add(1)
					l.broken = fmt.Errorf("interval fsync: %v", err)
					l.opt.Logf("wal: interval fsync failed, log latched broken: %v", err)
				}
			}
			l.mu.Unlock()
		}
	}
}

// CompactThrough rewrites the log keeping only records with epochs
// beyond epoch — the suffix a snapshot at that epoch does not cover.
// The rewrite goes through a temp file and one rename, so a crash at
// any point leaves either the old log (records re-covered by the
// snapshot are skipped during replay by their epochs) or the new one.
func (l *Log) CompactThrough(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("%w: %v", ErrBroken, l.broken)
	}
	data, err := os.ReadFile(filepath.Join(l.dir, logName))
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	if int64(len(data)) > l.size {
		data = data[:l.size]
	}
	recs, _, _, err := scanLog(data, l.opt.MaxRecordBytes)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	tmpPath := filepath.Join(l.dir, logName+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	kept, keptBytes, lastKept := 0, int64(len(fileMagic)), uint64(0)
	write := func() error {
		if err := fault(OpCompactWrite); err != nil {
			return err
		}
		if _, err := tmp.Write([]byte(fileMagic)); err != nil {
			return err
		}
		for _, r := range recs {
			if r.Epoch <= epoch {
				continue
			}
			buf := encodeRecord(r.Epoch, r.Payload)
			if _, err := tmp.Write(buf); err != nil {
				return err
			}
			kept++
			keptBytes += int64(len(buf))
			lastKept = r.Epoch
		}
		return tmp.Sync()
	}
	if err := write(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := fault(OpCompactRename); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(l.dir, logName)); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("wal: compact: %w", err)
	}
	syncDir(l.dir)
	// The old fd now names the unlinked inode; reopen the live file.
	nf, err := os.OpenFile(filepath.Join(l.dir, logName), os.O_RDWR, 0o644)
	if err != nil {
		l.broken = fmt.Errorf("reopen after compaction: %v", err)
		return fmt.Errorf("%w: %v", ErrBroken, l.broken)
	}
	l.f.Close()
	l.f = nf
	l.size = keptBytes
	l.records = kept
	if kept > 0 {
		l.last = lastKept
	} // else last keeps its value: epochs stay monotonic across compaction
	l.compactions.Add(1)
	return nil
}

// Dir returns the directory the log (and its snapshots) live in.
func (l *Log) Dir() string { return l.dir }

// SyncPolicy returns the fsync policy the log was opened with.
func (l *Log) SyncPolicy() SyncPolicy { return l.opt.Sync }

// Records returns the number of records currently in the log file —
// the compaction trigger reads it after each append.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Stats returns a snapshot of the log's counters and state.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		Appends:     l.appends.Load(),
		Fsyncs:      l.fsyncs.Load(),
		Errors:      l.errs.Load(),
		Retries:     l.retries.Load(),
		Compactions: l.compactions.Load(),
		TornDrops:   l.tornDrops.Load(),
		Records:     l.records,
		Bytes:       l.size,
		LastEpoch:   l.last,
	}
	if l.broken != nil {
		s.Broken = true
		s.BrokenReason = l.broken.Error()
	}
	return s
}

// Close stops the background sync (if any), flushes, and closes the
// file. The log must not be used afterwards.
func (l *Log) Close() error {
	if l.stopSync != nil {
		close(l.stopSync)
		<-l.syncDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var serr error
	if l.broken == nil {
		serr = l.f.Sync()
	}
	cerr := l.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// syncDir best-effort fsyncs a directory so a rename within it is
// durable. Errors are ignored: not every filesystem supports it, and
// the rename itself already happened.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// removeStrayTemps deletes temp files an interrupted compaction or
// snapshot left behind. They were never renamed into place, so they are
// dead weight by construction.
func removeStrayTemps(dir string, logf func(string, ...any)) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if len(name) > 4 && name[len(name)-4:] == ".tmp" {
			logf("wal: removing stray temp file %s", name)
			os.Remove(filepath.Join(dir, name))
		}
	}
}
