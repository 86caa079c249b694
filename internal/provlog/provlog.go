// Package provlog is the durable backend of the provenance store: a
// segmented, CRC-checksummed write-ahead log of every executed pipeline
// instance. BugDoc's evaluation model is deterministic (Definition 2), so
// each logged record is an oracle call that never has to be paid for again:
// reopening the log rebuilds the fully-indexed in-memory store, and a
// resumed debugging session replays history instead of re-executing.
//
// The Log implements provenance.Sink, so attaching it to a store (which
// Open does) makes every Store.Add and Store.AddBatch durable before it is
// queryable, each with one write of its frames. Records
// are fixed-width — the instance's interned code vector plus an outcome
// byte and a source id — interleaved with the dictionary frames that define
// the code and source assignments (see format.go). Segments rotate at a
// size threshold; recovery tolerates a torn final record by truncating the
// final segment back to its intact prefix.
//
// The WAL segments and space.json are a state directory's whole state:
// Open and Replay rebuild the store by replaying every segment. The
// byte-level format and the recovery rules are specified in docs/ONDISK.md.
package provlog

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/provenance"
	"repro/internal/spec"
)

// defaultSegmentSize is the rotation threshold. At roughly 4·P+8 bytes
// per record it holds on the order of 100k records per segment for a
// ten-parameter pipeline.
const defaultSegmentSize = 4 << 20

// spaceFile is the JSON spec of the space, written into the log directory
// so a session can be resumed without re-declaring the space (ReadSpace).
const spaceFile = "space.json"

// Option configures a Log.
type Option func(*Log)

// WithSync makes every write (and segment creation) fsync before
// completing. Off by default: appends are still synchronous write
// syscalls, but leave flushing to the OS, which loses at most the tail of
// the log on a machine crash — exactly what recovery truncates anyway.
func WithSync(on bool) Option {
	return func(l *Log) { l.sync = on }
}

// Log is an open write-ahead log. It is safe for concurrent use: one mutex
// serializes the writers, and each write — one Append or one AppendTrial —
// reaches the file as a single write syscall of all its frames, plus one
// fsync under WithSync.
type Log struct {
	mu          sync.Mutex
	dir         string
	space       *pipeline.Space
	fingerprint uint64
	segSize     int64
	sync        bool

	f        *os.File
	lock     *os.File // flock-held lock file; nil where unsupported
	segIndex uint32
	size     int64
	nextSeq  int
	met      *Metrics // nil when uninstrumented; see WithMetrics

	// persisted counts, per parameter, the codes already written as dict
	// frames; sourceID interns source strings to their frame ids.
	persisted []int
	sourceID  map[string]uint16

	// Write scratch, used under mu: frames is the buffer every write
	// assembles its frames in, kept for reuse; undo, undoSeq and addedSrc
	// snapshot the dictionaries and sequence the write began from, so a
	// failed write rolls back (see beginLocked).
	frames   []byte
	undo     []int
	undoSeq  int
	addedSrc []string

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
// can reconstruct it. A directory an older version checkpointed is
// refused before anything in it is touched (see refuseCheckpointed).
func Open(dir string, space *pipeline.Space, opts ...Option) (*Log, *provenance.Store, error) {
	if space == nil {
		return nil, nil, fmt.Errorf("provlog: nil space")
	}
	if err := refuseCheckpointed(dir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	l := &Log{
		dir:         dir,
		space:       space,
		fingerprint: space.Fingerprint(),
		segSize:     defaultSegmentSize,
		persisted:   make([]int, space.Len()),
		sourceID:    make(map[string]uint16),
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
	rs, segs, lastGood, err := replayDir(dir, space)
	if err != nil {
		return nil, nil, err
	}
	st := rs.st
	if st.Len() != rs.seen {
		return nil, nil, fmt.Errorf("provlog: replay rebuilt %d records but the stream holds %d", st.Len(), rs.seen)
	}
	copy(l.persisted, rs.persisted)
	l.sourceID = rs.sourceID
	l.nextSeq = rs.seen
	if len(segs) == 0 {
		err = l.createSegment(0, l.nextSeq)
	} else {
		err = l.reopenSegment(segs[len(segs)-1], lastGood)
	}
	if err != nil {
		return nil, nil, err
	}
	st.SetSink(l)
	ok = true
	return l, st, nil
}

// manifestName is the file through which older versions found their
// checkpoint tiers.
const manifestName = "MANIFEST"

// refuseCheckpointed fails for a directory that holds a MANIFEST: an
// older version checkpointed it, so part of its history may live only in
// the tier files the MANIFEST names, which this version does not read.
// Tier, checkpoint and temp files without a MANIFEST were never reachable
// state and are ignored, as older versions ignored them.
func refuseCheckpointed(dir string) error {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	return fmt.Errorf("provlog: %s holds a checkpoint %s; this version reads only WAL segments, and commit 2b2639a is the last that reads checkpointed state directories",
		dir, manifestName)
}

// persistSpace writes space.json if absent, through atomicPublish so a
// crash never leaves a half-written spec. Earlier versions renamed without
// fsyncing the file or the directory, so a crash shortly after Create
// could surface an empty or missing spec; the shared helper closes that
// hole.
func (l *Log) persistSpace() error {
	path := filepath.Join(l.dir, spaceFile)
	if _, err := os.Stat(path); err == nil {
		return nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return atomicPublish(l.dir, spaceFile+".tmp*", path,
		func(tmp *os.File) error { return spec.Write(tmp, l.space) })
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

// Append implements provenance.Sink: it durably logs a batch of records
// with one write, emitting dictionary frames first for any value codes or
// source strings the log has not seen. Records must arrive in sequence
// order without gaps — exactly how the store hands them over under its
// write lock. A record the log cannot frame (wrong space or sequence,
// oversized value or source) fails the whole batch before anything is
// written. A failed write fails the whole batch too, but rolls back (see
// writeLocked): the log stays usable unless the partial write could not
// be trimmed. Allocation-free after warm-up.
func (l *Log) Append(recs []provenance.Record) error {
	if len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.beginLocked(); err != nil {
		return err
	}
	// Exec frames are 4·P+8 bytes; dictionary and source frames, rare
	// past a log's first writes, may still grow the buffer.
	buf := slices.Grow(l.frames[:0], len(recs)*(4*l.space.Len()+8))
	for _, r := range recs {
		var err error
		switch {
		case r.Instance.Space() != l.space:
			err = fmt.Errorf("provlog: record belongs to a different space")
		case r.Seq != l.nextSeq:
			err = fmt.Errorf("provlog: append of record %d, want %d", r.Seq, l.nextSeq)
		case isTrialSource(r.Source):
			// The prefix is how replay tells trial frames from records;
			// a record wearing it would be mistaken for a vote.
			err = fmt.Errorf("provlog: source %q uses the reserved trial prefix", r.Source)
		default:
			buf, err = l.appendFramesLocked(buf, r.Instance, r.Outcome, r.Source)
		}
		if err != nil {
			l.rollbackLocked()
			return err
		}
		l.nextSeq++
	}
	return l.writeLocked(buf, len(recs))
}

// beginLocked opens a write: it refuses a closed or broken log and
// snapshots the dictionaries and the sequence for rollbackLocked. The
// caller holds l.mu.
func (l *Log) beginLocked() error {
	if l.closed {
		return fmt.Errorf("provlog: log is closed")
	}
	if l.broken != nil {
		return l.broken
	}
	l.undo = append(l.undo[:0], l.persisted...)
	l.undoSeq = l.nextSeq
	l.addedSrc = l.addedSrc[:0]
	return nil
}

// rollbackLocked restores the dictionaries and the sequence to the state
// the write began from: none of its frames reached the file.
func (l *Log) rollbackLocked() {
	copy(l.persisted, l.undo)
	for _, s := range l.addedSrc {
		delete(l.sourceID, s)
	}
	l.nextSeq = l.undoSeq
}

// appendFramesLocked appends one exec frame to buf, preceded by the dict
// frames of any codes of in, and the source frame of source, that the log
// has not framed yet. On error buf may hold a partial frame sequence and
// the dictionaries may have advanced; the caller rolls back.
func (l *Log) appendFramesLocked(buf []byte, in pipeline.Instance, out pipeline.Outcome, source string) ([]byte, error) {
	if len(source) > math.MaxUint16 {
		return buf, fmt.Errorf("provlog: source %.32q... is %d bytes, limit %d",
			source, len(source), math.MaxUint16)
	}
	for i := 0; i < l.space.Len(); i++ {
		c := int(in.Code(i))
		for l.persisted[i] <= c {
			code := uint32(l.persisted[i])
			v := l.space.InternedValue(i, code)
			// Reject what the scanner would refuse to read back: an
			// oversized label would pass the write and poison the log.
			if v.Kind() == pipeline.Categorical && len(v.Str()) > maxBlob {
				return buf, fmt.Errorf("provlog: categorical value of parameter %q is %d bytes, limit %d",
					l.space.At(i).Name, len(v.Str()), maxBlob)
			}
			buf = appendDictFrame(buf, uint16(i), code, v)
			l.persisted[i]++
		}
	}
	id, ok := l.sourceID[source]
	if !ok {
		if len(l.sourceID) > math.MaxUint16 {
			return buf, fmt.Errorf("provlog: too many distinct sources")
		}
		id = uint16(len(l.sourceID))
		buf = appendSourceFrame(buf, id, source)
		l.sourceID[source] = id
		l.addedSrc = append(l.addedSrc, source)
	}
	return appendExecFrame(buf, in, out, id), nil
}

// writeLocked ends a write begun by beginLocked: it writes the frames
// with writeFrames. A failed write rolls the dictionaries and the
// sequence back, so a transient error (say, a full disk) fails only this
// write; only a write whose partial frames could not be trimmed breaks the
// log, because the on-disk tail no longer matches the dictionaries. recs
// is the number of records among the frames. The caller holds l.mu.
func (l *Log) writeLocked(frames []byte, recs int) error {
	l.frames = frames[:0] // keep the grown buffer for the next write
	err := l.writeFrames(frames, l.undoSeq, recs)
	if err == nil {
		return nil
	}
	var fe *flushError
	if errors.As(err, &fe) && !fe.dirty {
		l.rollbackLocked()
		return fmt.Errorf("provlog: append: %w", err)
	}
	l.broken = fmt.Errorf("provlog: log state unknown after failed write: %w", err)
	return l.broken
}

// flushError reports a failed write. dirty means the partial write could
// not be trimmed back to the boundary the write began at, so the on-disk
// tail no longer matches the in-memory state.
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

// writeFrames writes one write's frames to the active segment, rotating
// first if the segment is over its size threshold; the new segment's
// header names firstSeq, the sequence of the write's first record (or of
// the next record, for a write of votes only). Write and fsync failures
// come back as *flushError, trimming the partial write back to the
// boundary when possible. recs is the number of records among the frames,
// reported to telemetry. The caller holds l.mu.
func (l *Log) writeFrames(frames []byte, firstSeq, recs int) error {
	if l.size >= l.segSize {
		if err := l.rotate(firstSeq); err != nil {
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
	l.met.flushed(recs, len(frames), fsyncDur, l.sync)
	return nil
}

// rotate seals the active segment and starts the next one, whose header
// names firstSeq as its first record. If creating the next segment fails,
// the current one stays active and the write that triggered rotation
// fails; a later write retries.
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

// Sync fsyncs the active segment and the directory, so every write the
// log has returned from, and every segment file it has created, survives
// a machine crash. Sealed segments were fsynced when they rotated. Sync
// is how a caller makes the whole state durable at a point of its
// choosing without paying WithSync on every write; Close syncs too.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("provlog: log is closed")
	}
	if l.broken != nil {
		return l.broken
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	return syncDir(l.dir)
}

// Close syncs and closes the active segment and releases the directory
// lock. Further appends fail, so a store still holding the log as its sink
// rejects new records rather than silently dropping durability.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if l.lock != nil {
		if cerr := l.lock.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
