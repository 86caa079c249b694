// Package provlog is the durable backend of the provenance store: a
// segmented, CRC-checksummed write-ahead log of every executed pipeline
// instance. BugDoc's evaluation model is deterministic (Definition 2), so
// each logged record is an oracle call that never has to be paid for again:
// reopening the log rebuilds the fully-indexed in-memory store, and a
// resumed debugging session replays history instead of re-executing.
//
// The Log implements provenance.Sink, so attaching it to a store (which
// Open does) makes every Store.Add durable before it is queryable. Records
// are fixed-width — the instance's interned code vector plus an outcome
// byte and a source id — interleaved with the dictionary frames that define
// the code and source assignments (see format.go). Segments rotate at a
// size threshold; recovery tolerates a torn final record by truncating the
// final segment back to its intact prefix.
//
// Resume cost stays bounded by compaction: Checkpoint (explicit, or
// automatic under a CompactPolicy) folds the committed history into a
// sorted, self-contained checkpoint file and garbage-collects the
// segments it supersedes, all while appends continue. Open then loads the
// newest valid checkpoint with one index-free sequential pass and replays
// only the WAL suffix past its watermark, recovering cleanly from a crash
// at any stage of a compaction. The byte-level formats and the full crash
// matrix are specified in docs/ONDISK.md.
package provlog

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
	"repro/internal/provenance"
	"repro/internal/spec"
)

// DefaultSegmentSize is the rotation threshold when WithSegmentSize is not
// given. At roughly 4·P+8 bytes per record it holds on the order of 100k
// records per segment for a ten-parameter pipeline.
const DefaultSegmentSize = 4 << 20

// DefaultMaxBatch is the commit-window record cap when SyncPolicy.MaxBatch
// is not set.
const DefaultMaxBatch = 4096

// SyncPolicy tunes group commit: how appends staged by concurrent writers
// coalesce into commit windows, each flushed with one buffered write (and,
// under WithSync, one fsync).
type SyncPolicy struct {
	// Interval is how long a flush leader waits for more appends to join
	// the window before writing. Zero flushes immediately — natural
	// batching still coalesces everything staged while the previous flush
	// was in flight, which is where the group-commit win comes from under
	// load; a positive interval trades latency for larger windows.
	Interval time.Duration
	// MaxBatch caps the records in one commit window: a window that
	// reaches it flushes without waiting out the Interval. <= 0 takes
	// DefaultMaxBatch.
	MaxBatch int
}

// spaceFile is the JSON spec of the space, written into the log directory
// so a session can be resumed without re-declaring the space (ReadSpace).
const spaceFile = "space.json"

// Option configures a Log.
type Option func(*Log)

// WithSegmentSize sets the rotation threshold in bytes; a segment whose
// size has reached it is sealed before the next append.
func WithSegmentSize(n int64) Option {
	return func(l *Log) {
		if n < headerSize+64 {
			n = headerSize + 64
		}
		l.segSize = n
	}
}

// WithSync makes every commit-window flush (and segment creation) fsync
// before completing. Off by default: appends are still synchronous write
// syscalls, but leave flushing to the OS, which loses at most the tail of
// the log on a machine crash — exactly what recovery truncates anyway.
func WithSync(on bool) Option {
	return func(l *Log) { l.sync = on }
}

// WithSyncPolicy sets the group-commit windowing policy (see SyncPolicy).
func WithSyncPolicy(p SyncPolicy) Option {
	return func(l *Log) { l.policy = p }
}

// commitGroup is one commit window: the set of records staged between two
// flushes. Followers park on the leader's done channel (Log.flushDone);
// flushed/err record the window's fate for them to read on wake-up.
type commitGroup struct {
	recs    int
	full    chan struct{} // closed when recs reaches MaxBatch, cutting the Interval short
	fullSet bool
	flushed bool
	err     error
}

// Log is an open write-ahead log. It is safe for concurrent use: appends
// are staged under the log's mutex and made durable by group commit —
// concurrent writers coalesce into one buffered write (and one fsync under
// WithSync) per commit window, a leader/follower pattern where the first
// waiter flushes everything staged and the rest park on its done channel.
type Log struct {
	mu          sync.Mutex
	dir         string
	space       *pipeline.Space
	fingerprint uint64
	segSize     int64
	sync        bool
	policy      SyncPolicy

	f        *os.File
	lock     *os.File // flock-held lock file; nil where unsupported
	segIndex uint32
	size     int64 // flusher-owned once open; serialized by flushing
	nextSeq  int
	met      *Metrics // nil when uninstrumented; see WithMetrics

	// Compaction state: the store Open attached (checkpoints snapshot it),
	// the newest checkpoint's watermark, the WAL bytes written since, and
	// the policy's background-trigger bookkeeping. compactMu serializes
	// whole compactions and is never held together with mu; compactWG
	// tracks every in-flight compaction (background and explicit) so Close
	// can drain them before releasing the directory lock. bytesSinceCkpt
	// is atomic because writeWindow increments it from the flush leader,
	// which runs with mu released.
	store           *provenance.Store
	compact         CompactPolicy
	merge           MergePolicy // tier-compaction policy; zero fields take defaults
	compactMu       sync.Mutex
	compactWG       sync.WaitGroup
	compacting      bool
	compactFailures int // consecutive failed auto-compactions; backs off the trigger
	lastCkptSeq     int
	tiers           []tierRef // live checkpoint tiers, newest first; guarded by mu
	bytesSinceCkpt  atomic.Int64

	// persisted counts, per parameter, the codes already written as dict
	// frames; sourceID interns source strings to their frame ids.
	persisted []int
	sourceID  map[string]uint16

	// Group-commit state: staged frames accumulate in pending (sequence
	// order — staging happens under mu) until a leader swaps the buffer out
	// and flushes it, recycling it afterwards when no stager replaced it.
	pending       []byte
	pendingRecs   int
	pendingTrials int // trial frames staged in the window (no sequence numbers)
	pendingFirst  int // seq of the first pending record (segment rotation header)
	cur           *commitGroup
	flushing      bool
	flushDone     chan struct{} // the active leader's done channel

	undo     []int                // persisted snapshot for rollback on a failed stage
	addedSrc []string             // sources interned by the stage in progress, for rollback
	fastOne  [1]provenance.Record // Append fast-path scratch, used under mu

	broken error // set when the on-disk state is unknown; poisons the log
	closed bool
}

// Exists reports whether dir contains log segments.
func Exists(dir string) bool {
	segs, err := listSegments(dir)
	return err == nil && len(segs) > 0
}

// ReadSpace reconstructs the parameter space from the spec that Open
// persisted alongside the log.
func ReadSpace(dir string) (*pipeline.Space, error) {
	f, err := os.Open(filepath.Join(dir, spaceFile))
	if err != nil {
		return nil, fmt.Errorf("provlog: no persisted space in %s: %w", dir, err)
	}
	defer f.Close()
	return spec.Read(f)
}

// Open opens the log in dir (creating the directory and first segment for
// an empty dir), replays any existing segments into a fresh fully-indexed
// provenance store, truncates a torn final record left by a crash, and
// returns the log attached as the store's sink, ready for appends.
//
// The space must be constructed from the same declaration every run: its
// fingerprint is stored in each segment header and replay refuses a
// mismatch. Open also persists the space spec as space.json so ReadSpace
// can reconstruct it.
func Open(dir string, space *pipeline.Space, opts ...Option) (*Log, *provenance.Store, error) {
	if space == nil {
		return nil, nil, fmt.Errorf("provlog: nil space")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	l := &Log{
		dir:         dir,
		space:       space,
		fingerprint: space.Fingerprint(),
		segSize:     DefaultSegmentSize,
		persisted:   make([]int, space.Len()),
		sourceID:    make(map[string]uint16),
		undo:        make([]int, space.Len()),
	}
	for _, o := range opts {
		o(l)
	}
	// Exclusive writer lock before touching any file: a second live
	// process must not repair, truncate, or append concurrently. Released
	// on Close and automatically when a killed process dies.
	lock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	l.lock = lock
	ok := false
	defer func() {
		if !ok && l.lock != nil {
			l.lock.Close()
		}
	}()
	if err := l.persistSpace(); err != nil {
		return nil, nil, err
	}
	// Sweep up temp files a killed compaction left behind; the directory
	// lock guarantees no live compactor owns them.
	removeStrayTmp(dir)
	rs, segs, lastGood, err := replayDir(dir, space, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, nil, err
	}
	st := rs.st
	total := rs.seen
	if rs.ckptSeq > total {
		total = rs.ckptSeq
	}
	if st.Len() != total {
		return nil, nil, fmt.Errorf("provlog: replay rebuilt %d records but the stream holds %d", st.Len(), total)
	}
	copy(l.persisted, rs.persisted)
	l.sourceID = rs.sourceID
	l.nextSeq = total
	l.lastCkptSeq = rs.ckptSeq
	if rs.ckpt != nil {
		// Future checkpoints stack on the tiers this open loaded; their
		// CRCs were bound during the load, so the next manifest republishes
		// them with full integrity bindings.
		l.tiers = append([]tierRef(nil), rs.ckpt.tiers...)
	}
	l.met.tierCount(len(l.tiers))
	switch {
	case len(segs) == 0:
		if err := l.createSegment(0, l.nextSeq); err != nil {
			return nil, nil, err
		}
	case rs.seen < rs.ckptSeq:
		// The WAL's tail below the watermark was lost (a machine crash
		// after the checkpoint fsynced but before the OS flushed the WAL,
		// possible without WithSync). The checkpoint is authoritative for
		// everything below its watermark; the stale tail segment is
		// abandoned where it ends and appends continue in a fresh segment
		// whose header re-anchors the sequence at the watermark. Replay
		// enters the stream there, so the abandoned tail is never
		// re-counted, and the next compaction collects the stale segments.
		// The dictionaries reset to the checkpoint's tables: dict frames
		// the scan saw in the abandoned tail will never be replayed again,
		// so the writer must re-emit them when next referenced.
		copy(l.persisted, rs.ckpt.persisted)
		l.sourceID = rs.ckpt.sourceID
		if err := l.createSegment(segs[len(segs)-1].index+1, l.nextSeq); err != nil {
			return nil, nil, err
		}
	default:
		last := segs[len(segs)-1]
		if err := l.reopenSegment(last, lastGood); err != nil {
			return nil, nil, err
		}
	}
	l.store = st
	st.SetSink(l)
	ok = true
	return l, st, nil
}

// persistSpace writes space.json if absent, through atomicPublish so a
// crash never leaves a half-written spec. Earlier versions renamed without
// fsyncing the file or the directory, so a crash shortly after Create
// could surface an empty or missing spec; the shared helper closes that
// hole (found by the renamesync analyzer).
func (l *Log) persistSpace() error {
	path := filepath.Join(l.dir, spaceFile)
	if _, err := os.Stat(path); err == nil {
		return nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return atomicPublish(l.dir, spaceFile+".tmp*", path,
		func(tmp *os.File) error { return spec.Write(tmp, l.space) }, nil)
}

func segPath(dir string, index uint32) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%06d.seg", index))
}

// createSegment creates and headers segment index, leaving it as the
// active segment.
func (l *Log) createSegment(index uint32, firstSeq int) error {
	f, err := os.OpenFile(segPath(l.dir, index), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hb := encodeHeader(header{
		fingerprint: l.fingerprint,
		nParams:     uint32(l.space.Len()),
		segIndex:    index,
		firstSeq:    uint64(firstSeq),
	})
	if _, err := f.Write(hb); err != nil {
		f.Close()
		return err
	}
	if l.sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := syncDir(l.dir); err != nil {
			f.Close()
			return err
		}
	}
	l.f, l.segIndex, l.size = f, index, headerSize
	return nil
}

// reopenSegment opens the final segment for appending, truncating back to
// its intact prefix. A prefix shorter than the header (the crash tore the
// header itself) rewrites the segment from scratch.
func (l *Log) reopenSegment(sf segFile, lastGood int64) error {
	f, err := os.OpenFile(sf.path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if lastGood < headerSize {
		f.Close()
		if err := os.Remove(sf.path); err != nil {
			return err
		}
		return l.createSegment(sf.index, l.nextSeq)
	}
	if err := f.Truncate(lastGood); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(lastGood, 0); err != nil {
		f.Close()
		return err
	}
	l.f, l.segIndex, l.size = f, sf.index, lastGood
	return nil
}

// syncDir fsyncs a directory so freshly created segment files survive a
// machine crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// SegmentCount returns the number of segments, counting the active one.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.segIndex) + 1
}

// Append implements provenance.Sink: it durably logs one record, emitting
// dictionary frames first for any value codes or source strings the log has
// not seen. Records must arrive in sequence order without gaps. An
// uncontended Append stages and writes inline (allocation-free after
// warm-up, like the pre-group-commit path); when other appends are staged
// or a flush is in flight it degrades to Stage plus the durability wait,
// coalescing into the commit window.
//
// A failed inline write rolls back — the stage snapshot restores the
// dictionaries and the partial write is trimmed — so a transient error
// (say, a full disk) fails only this append and the log stays usable;
// only a failed trim poisons it. Commit windows with multiple writers
// cannot roll back (their waiters have interleaved dictionary state), so
// group-path flush failures always poison.
func (l *Log) Append(r provenance.Record) error {
	l.mu.Lock()
	if l.cur == nil && !l.flushing && l.pendingRecs == 0 && l.pendingTrials == 0 {
		defer l.mu.Unlock()
		l.fastOne[0] = r
		if err := l.stageLocked(l.fastOne[:1]); err != nil {
			return err
		}
		frames, firstSeq := l.pending, l.pendingFirst
		l.pending = frames[:0]
		l.pendingRecs = 0
		if err := l.writeWindow(frames, firstSeq, 1, true); err != nil {
			var fe *flushError
			if errors.As(err, &fe) && !fe.dirty {
				// The file is back at its pre-append state; undo the stage
				// (the snapshot from stageLocked is still current — we have
				// held the mutex throughout).
				copy(l.persisted, l.undo)
				for _, s := range l.addedSrc {
					delete(l.sourceID, s)
				}
				l.nextSeq--
				return fmt.Errorf("provlog: append: %w", err)
			}
			if l.broken == nil {
				l.broken = fmt.Errorf("provlog: log state unknown after failed flush: %w", err)
			}
			return l.broken
		}
		l.maybeCompactLocked()
		return nil
	}
	l.mu.Unlock()
	wait, err := l.Stage([]provenance.Record{r})
	if err != nil {
		return err
	}
	return wait()
}

// Stage implements provenance.StagedSink: it assembles the records' frames
// into the pending commit window and returns a wait function that blocks
// until the window is durable. Records must arrive in sequence order
// without gaps — exactly how the store produces them under its write lock.
// A staging error (wrong space or sequence, oversized value or source)
// rolls the window back to its pre-call state and stages nothing; a flush
// error fails every record of the window and poisons the log, because the
// on-disk tail is no longer known to match the staged dictionaries.
func (l *Log) Stage(recs []provenance.Record) (wait func() error, err error) {
	if len(recs) == 0 {
		return func() error { return nil }, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.stageLocked(recs); err != nil {
		return nil, err
	}
	if l.cur == nil {
		l.cur = &commitGroup{full: make(chan struct{})}
	}
	g := l.cur
	g.recs += len(recs)
	if max := l.maxBatch(); g.recs >= max && !g.fullSet {
		g.fullSet = true
		close(g.full)
	}
	return func() error { return l.waitDurable(g) }, nil
}

// stageLocked validates the records and appends their frames (dictionary
// entries first) to the pending buffer. On error the dictionaries and the
// buffer roll back; nothing of the batch is staged.
func (l *Log) stageLocked(recs []provenance.Record) error {
	if l.closed {
		return fmt.Errorf("provlog: log is closed")
	}
	if l.broken != nil {
		return l.broken
	}
	undo := append(l.undo[:0], l.persisted...)
	l.undo = undo // keep the field aliased even if append reallocated
	l.addedSrc = l.addedSrc[:0]
	rollback := func(reason error) error {
		copy(l.persisted, undo)
		for _, s := range l.addedSrc {
			delete(l.sourceID, s)
		}
		return reason
	}
	buf := l.pending
	want := l.nextSeq
	for _, r := range recs {
		if r.Instance.Space() != l.space {
			return rollback(fmt.Errorf("provlog: record belongs to a different space"))
		}
		if r.Seq != want {
			return rollback(fmt.Errorf("provlog: append of record %d, want %d", r.Seq, want))
		}
		if len(r.Source) > math.MaxUint16 {
			return rollback(fmt.Errorf("provlog: source %.32q... is %d bytes, limit %d",
				r.Source, len(r.Source), math.MaxUint16))
		}
		if isTrialSource(r.Source) {
			// The prefix is how replay tells trial frames from records;
			// a record wearing it would be mistaken for a vote.
			return rollback(fmt.Errorf("provlog: source %q uses the reserved trial prefix", r.Source))
		}
		for i := 0; i < l.space.Len(); i++ {
			c := int(r.Instance.Code(i))
			for l.persisted[i] <= c {
				code := uint32(l.persisted[i])
				v := l.space.InternedValue(i, code)
				// Reject what the scanner would refuse to read back: an
				// oversized label would pass the write and poison the log.
				if v.Kind() == pipeline.Categorical && len(v.Str()) > maxBlob {
					return rollback(fmt.Errorf("provlog: categorical value of parameter %q is %d bytes, limit %d",
						l.space.At(i).Name, len(v.Str()), maxBlob))
				}
				buf = appendDictFrame(buf, uint16(i), code, v)
				l.persisted[i]++
			}
		}
		id, ok := l.sourceID[r.Source]
		if !ok {
			if len(l.sourceID) > math.MaxUint16 {
				return rollback(fmt.Errorf("provlog: too many distinct sources"))
			}
			id = uint16(len(l.sourceID))
			buf = appendSourceFrame(buf, id, r.Source)
			l.sourceID[r.Source] = id
			l.addedSrc = append(l.addedSrc, r.Source)
		}
		buf = appendExecFrame(buf, r.Instance, r.Outcome, id)
		want++
	}
	if l.pendingRecs == 0 {
		l.pendingFirst = recs[0].Seq
	}
	l.pending = buf
	l.pendingRecs += len(recs)
	l.nextSeq = want
	return nil
}

func (l *Log) maxBatch() int {
	if l.policy.MaxBatch > 0 {
		return l.policy.MaxBatch
	}
	return DefaultMaxBatch
}

// waitDurable blocks until g's commit window has been flushed and returns
// its fate. The first waiter to find no flush in progress becomes the
// leader: it waits out the sync policy's window, swaps the pending buffer,
// and performs the single write (+fsync) for everything staged; followers
// park on the leader's done channel and re-check on wake-up.
func (l *Log) waitDurable(g *commitGroup) error {
	l.mu.Lock()
	for {
		if g.flushed {
			err := g.err
			l.mu.Unlock()
			return err
		}
		if l.flushing {
			ch := l.flushDone
			l.mu.Unlock()
			<-ch
			l.mu.Lock()
			continue
		}
		l.leaderFlushLocked(g, true)
	}
}

// leaderFlushLocked runs one flush cycle: optionally waits out the commit
// window, takes the pending buffer, writes it outside the lock, marks the
// flushed group, and wakes the followers. The caller holds l.mu with
// l.flushing false; it returns with l.mu held again.
func (l *Log) leaderFlushLocked(g *commitGroup, window bool) {
	l.flushing = true
	done := make(chan struct{})
	l.flushDone = done
	if window && g != nil && l.policy.Interval > 0 && !g.fullSet {
		l.mu.Unlock()
		t := time.NewTimer(l.policy.Interval)
		select {
		case <-t.C:
		case <-g.full:
			t.Stop()
		}
		l.mu.Lock()
	}
	frames := l.pending
	firstSeq := l.pendingFirst
	flushedGroup := l.cur
	broken := l.broken
	recs := l.pendingRecs
	l.cur = nil
	l.pending = nil
	l.pendingRecs = 0
	l.pendingTrials = 0
	l.mu.Unlock()

	var err error
	switch {
	case broken != nil:
		// A window staged before an earlier flush failed: the on-disk tail
		// is unknown, so fail it without touching the file — writing after
		// the failure point would corrupt the segment beyond what torn-tail
		// recovery repairs.
		err = broken
	case len(frames) > 0:
		err = l.writeWindow(frames, firstSeq, recs, false)
	}

	// Any failure here poisons the log, even one that provably wrote
	// nothing (a failed rotation): the window's stage already advanced the
	// dictionary counters for several interleaved writers, and discarding
	// the window leaves them claiming dict frames that never reached disk —
	// unlike the single-writer Append fast path, there is no snapshot that
	// can roll a multi-writer window back.

	l.mu.Lock()
	if l.pending == nil {
		l.pending = frames[:0] // recycle the flushed buffer
	}
	if flushedGroup != nil {
		flushedGroup.flushed = true
		flushedGroup.err = err
	}
	if err != nil && l.broken == nil {
		// The on-disk tail no longer matches the staged dictionaries and
		// sequence numbers; no later append can be written consistently.
		l.broken = fmt.Errorf("provlog: log state unknown after failed flush: %w", err)
	}
	l.flushing = false
	if err == nil {
		l.maybeCompactLocked()
	}
	close(done)
}

// flushError reports a failed commit-window write. dirty means the
// partial write could not be trimmed back to the pre-window boundary, so
// the on-disk tail no longer matches the in-memory state.
type flushError struct {
	cause error
	dirty bool
}

func (e *flushError) Error() string {
	if e.dirty {
		return fmt.Sprintf("%v (and the partial write could not be trimmed)", e.cause)
	}
	return e.cause.Error()
}

func (e *flushError) Unwrap() error { return e.cause }

// writeWindow writes one commit window to the active segment, rotating
// first if the segment is over its size threshold. Callers either hold
// l.mu (the Append fast path) or own the flush (l.flushing, which
// serializes every other toucher of l.f and l.size); rotation updates
// l.segIndex, which SegmentCount reads, so it always runs under the mutex.
// Write and fsync failures come back as *flushError, trimming the partial
// write back to the window boundary when possible. recs is the number of
// records in the window, reported to telemetry.
func (l *Log) writeWindow(frames []byte, firstSeq, recs int, muHeld bool) error {
	if l.size >= l.segSize {
		if !muHeld {
			l.mu.Lock()
		}
		err := l.rotate(firstSeq)
		if !muHeld {
			l.mu.Unlock()
		}
		if err != nil {
			return &flushError{cause: err}
		}
	}
	fail := func(cause error) error {
		// Trim the partial write so a later reader sees a clean tail.
		if terr := l.f.Truncate(l.size); terr != nil {
			return &flushError{cause: cause, dirty: true}
		}
		if _, serr := l.f.Seek(l.size, 0); serr != nil {
			return &flushError{cause: cause, dirty: true}
		}
		return &flushError{cause: cause}
	}
	if _, err := l.f.Write(frames); err != nil {
		return fail(err)
	}
	var fsyncDur time.Duration
	if l.sync {
		var start time.Time
		if l.met != nil {
			start = time.Now()
		}
		if err := l.f.Sync(); err != nil {
			return fail(err)
		}
		if l.met != nil {
			fsyncDur = time.Since(start)
		}
	}
	l.size += int64(len(frames))
	l.bytesSinceCkpt.Add(int64(len(frames)))
	l.met.flushed(recs, len(frames), fsyncDur, l.sync)
	return nil
}

// rotate seals the active segment and starts the next one, whose header
// names firstSeq as its first record. If creating the next segment fails,
// the current one stays active and the flush that triggered rotation
// fails; a later flush retries.
func (l *Log) rotate(firstSeq int) error {
	old, oldIndex, oldSize := l.f, l.segIndex, l.size
	if err := l.createSegment(l.segIndex+1, firstSeq); err != nil {
		l.f, l.segIndex, l.size = old, oldIndex, oldSize
		return fmt.Errorf("provlog: rotating segment: %w", err)
	}
	if err := old.Sync(); err != nil {
		old.Close()
		return fmt.Errorf("provlog: sealing segment %d: %w", oldIndex, err)
	}
	if err := old.Close(); err != nil {
		return fmt.Errorf("provlog: sealing segment %d: %w", oldIndex, err)
	}
	return nil
}

// Close drains any in-flight commit window, flushes pending frames, waits
// out a background compaction, and closes the active segment. Further
// appends fail, so a store still holding the log as its sink rejects new
// records rather than silently dropping durability.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for l.flushing {
		ch := l.flushDone
		l.mu.Unlock()
		<-ch
		l.mu.Lock()
	}
	if l.pendingRecs > 0 || l.pendingTrials > 0 {
		// Staged records (or trial votes) whose waiters have not flushed
		// yet: write them out and wake the waiters with the window's fate.
		l.leaderFlushLocked(nil, false)
	}
	var err error
	if l.f != nil {
		err = l.f.Sync()
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
	}
	l.mu.Unlock()
	// A background compaction aborts at its next closed-check; wait for it
	// before releasing the directory lock so it cannot mutate a directory
	// another process has started to own.
	l.compactWG.Wait()
	if l.lock != nil {
		if cerr := l.lock.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
