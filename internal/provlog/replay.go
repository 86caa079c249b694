package provlog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/pipeline"
	"repro/internal/provenance"
)

// segFile is one discovered segment.
type segFile struct {
	path  string
	index uint32
}

// listSegments returns the log's segments ordered by index and verifies
// the indices are contiguous (a gap means a segment was lost, which
// recovery cannot paper over). replayDir checks that the lowest index is
// zero.
func listSegments(dir string) ([]segFile, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, err
	}
	segs := make([]segFile, 0, len(names))
	for _, p := range names {
		base := filepath.Base(p)
		numStr := strings.TrimSuffix(strings.TrimPrefix(base, "wal-"), ".seg")
		n, err := strconv.ParseUint(numStr, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("provlog: unrecognized segment file %q", base)
		}
		segs = append(segs, segFile{path: p, index: uint32(n)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	for i, sf := range segs {
		if sf.index != segs[0].index+uint32(i) {
			return nil, fmt.Errorf("provlog: segment index %d missing (found %s)",
				segs[0].index+uint32(i), filepath.Base(sf.path))
		}
	}
	return segs, nil
}

// replayBatch is how many exec records buffer before a bulk flush into the
// store; dictionary state never buffers (dict frames precede the records
// that reference them, so batched records only use settled assignments).
const replayBatch = 8192

// replayState accumulates the decoded log: the rebuilt store plus the
// dictionaries needed to resume appending (codes already framed per
// parameter, source-id assignments). Exec records buffer into a columnar
// batch and flush through Space.AdoptInstances: the batch's own code slab
// backs every instance in it. Each flush is one store write,
// Store.AddBatch: one lock and one index pass per batch. Trial votes do
// not buffer: each becomes its instance through Space.InstanceOfCodes and
// loads into the store's vote ledger as it is read, in the trial order
// the writer logged it.
type replayState struct {
	space     *pipeline.Space
	st        *provenance.Store
	persisted []int
	sources   []string
	sourceID  map[string]uint16

	seen int // exec records decoded so far; segment headers chain-check against it

	// batchCodes is the pending batch's code slab, row-major, one row of
	// space.Len() codes per record. The store keeps each flushed slab, so
	// every batch starts a fresh one, sized from unread: the bytes of the
	// current segment not yet decoded, by its size at open, which bound
	// the records it can still hold.
	batchCodes  []uint32
	unread      int64
	batchOuts   []pipeline.Outcome
	batchSrc    []uint16
	batchHashes []uint64            // flush scratch
	batchRecs   []provenance.Record // flush scratch, sized by the first flush
}

func newReplayState(space *pipeline.Space, st *provenance.Store) *replayState {
	return &replayState{
		space:     space,
		st:        st,
		persisted: make([]int, space.Len()),
		sourceID:  make(map[string]uint16),
	}
}

// flush commits the buffered records to the store as one write: it adopts
// them as instances over the batch's code slab, which passes to the store
// as it is, and hands them to Store.AddBatch. The log holds each instance
// once: AddBatch refuses a batch that repeats one of its own records, and
// a batch that adds fewer records than it decoded repeats one an earlier
// batch recorded, so replay fails naming it.
func (rs *replayState) flush() error {
	n := len(rs.batchOuts)
	if n == 0 {
		return nil
	}
	p := rs.space.Len()
	codes := rs.batchCodes
	rs.batchCodes = nil
	rs.batchHashes = rs.batchHashes[:0]
	for r := 0; r < n; r++ {
		rs.batchHashes = append(rs.batchHashes, pipeline.HashCodes(codes[r*p:(r+1)*p]))
	}
	if cap(rs.batchRecs) < n {
		rs.batchRecs = make([]provenance.Record, n)
	}
	recs := rs.batchRecs[:n]
	if err := rs.space.AdoptInstances(codes, rs.batchHashes, func(r int, in pipeline.Instance) {
		recs[r] = provenance.Record{Instance: in, Outcome: rs.batchOuts[r], Source: rs.sources[rs.batchSrc[r]]}
	}); err != nil {
		return fmt.Errorf("provlog: %w", err)
	}
	from := rs.st.Len()
	added, err := rs.st.AddBatch(recs)
	if err != nil {
		return err
	}
	if added < n {
		return rs.repeatError(recs, from)
	}
	rs.batchOuts = rs.batchOuts[:0]
	rs.batchSrc = rs.batchSrc[:0]
	return nil
}

// repeatError names the first record of a flushed batch that the store
// skipped as already recorded. The batch was offered from log position
// from on, and the records it added sit there in order, so the first one
// that is not the record at its position is the repeat.
func (rs *replayState) repeatError(recs []provenance.Record, from int) error {
	sn := rs.st.Snapshot()
	i := 0
	for from+i < sn.Len() && sn.At(from+i).Instance.Equal(recs[i].Instance) {
		i++
	}
	return fmt.Errorf("provlog: record %d repeats instance %v, already recorded", from+i, recs[i].Instance)
}

// scanner reads frames sequentially, tracking the byte offset consumed so
// recovery can truncate back to the last intact frame boundary. crc is a
// field rather than a local so reading it does not allocate per frame.
type scanner struct {
	r   *bufio.Reader
	off int64
	buf []byte
	crc [4]byte
}

// readFull fills b or reports a torn tail.
func (s *scanner) readFull(b []byte) error {
	n, err := io.ReadFull(s.r, b)
	s.off += int64(n)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errTorn
	}
	return err
}

// next reads one frame and verifies its checksum. It returns io.EOF at a
// clean end of the stream and errTorn for anything that reads as a crash
// artifact. The payload slice is valid until the following call.
func (s *scanner) next(nParams int) (typ byte, payload []byte, err error) {
	t, err := s.r.ReadByte()
	if err == io.EOF {
		return 0, nil, io.EOF
	}
	if err != nil {
		return 0, nil, err
	}
	s.off++
	if t == frameExec {
		// The hot path: exec frames are fixed-width, so payload and
		// checksum arrive in a single read.
		n := 4*nParams + 3
		s.buf = append(s.buf[:0], t)
		body := s.grow(n + 4)
		if err := s.readFull(body); err != nil {
			return 0, nil, err
		}
		want := binary.LittleEndian.Uint32(body[n:])
		s.buf = s.buf[:1+n]
		if crc32.ChecksumIEEE(s.buf) != want {
			return 0, nil, errTorn
		}
		return t, s.buf[1:], nil
	}
	var n int
	var tail func(head []byte) (int, error) // extra payload after a fixed head
	switch t {
	case frameSource:
		n = 4
		tail = func(head []byte) (int, error) {
			return int(binary.LittleEndian.Uint16(head[2:4])), nil
		}
	case frameDict:
		n = 7
		tail = func(head []byte) (int, error) {
			switch pipeline.Kind(head[6]) {
			case pipeline.Ordinal:
				return 8, nil
			case pipeline.Categorical:
				lenb := make([]byte, 4)
				if err := s.readFull(lenb); err != nil {
					return 0, err
				}
				s.buf = append(s.buf, lenb...)
				ln := binary.LittleEndian.Uint32(lenb)
				if ln > maxBlob {
					return 0, errTorn
				}
				return int(ln), nil
			default:
				return 0, errTorn
			}
		}
	default:
		return 0, nil, errTorn
	}
	s.buf = append(s.buf[:0], t)
	head := s.grow(n)
	if err := s.readFull(head); err != nil {
		return 0, nil, err
	}
	if tail != nil {
		extra, err := tail(head)
		if err != nil {
			return 0, nil, err
		}
		rest := s.grow(extra)
		if err := s.readFull(rest); err != nil {
			return 0, nil, err
		}
	}
	if err := s.readFull(s.crc[:]); err != nil {
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(s.buf) != binary.LittleEndian.Uint32(s.crc[:]) {
		return 0, nil, errTorn
	}
	return t, s.buf[1:], nil
}

// grow extends the frame buffer by n bytes and returns the new window,
// skipping the zero-fill when capacity suffices (the caller overwrites it).
func (s *scanner) grow(n int) []byte {
	old := len(s.buf)
	if cap(s.buf) >= old+n {
		s.buf = s.buf[:old+n]
	} else {
		s.buf = append(s.buf, make([]byte, n)...)
	}
	return s.buf[old:]
}

// apply decodes one verified frame into the replay state. Errors here are
// never recoverable: a frame with a valid checksum that contradicts the
// space or the replay invariants means the log and the space diverged.
func (rs *replayState) apply(typ byte, payload []byte) error {
	switch typ {
	case frameDict:
		p := int(binary.LittleEndian.Uint16(payload[0:2]))
		code := binary.LittleEndian.Uint32(payload[2:6])
		if p >= rs.space.Len() {
			return fmt.Errorf("provlog: dict entry for parameter %d of %d", p, rs.space.Len())
		}
		if int(code) != rs.persisted[p] {
			return fmt.Errorf("provlog: dict entry for parameter %d assigns code %d, want %d",
				p, code, rs.persisted[p])
		}
		var v pipeline.Value
		switch pipeline.Kind(payload[6]) {
		case pipeline.Ordinal:
			v = pipeline.Ord(math.Float64frombits(binary.LittleEndian.Uint64(payload[7:15])))
		case pipeline.Categorical:
			v = pipeline.Cat(string(payload[11:]))
		default:
			return fmt.Errorf("provlog: dict entry with invalid kind %d", payload[6])
		}
		if got := rs.space.Intern(p, v); got != code {
			return fmt.Errorf("provlog: value %v of parameter %q interned as code %d, log says %d (log written against a different space?)",
				v, rs.space.At(p).Name, got, code)
		}
		rs.persisted[p]++
	case frameSource:
		id := binary.LittleEndian.Uint16(payload[0:2])
		src := string(payload[4:])
		if int(id) != len(rs.sources) {
			return fmt.Errorf("provlog: source entry assigns id %d, want %d", id, len(rs.sources))
		}
		rs.sources = append(rs.sources, src)
		rs.sourceID[src] = id
	case frameExec:
		p := rs.space.Len()
		srcID := binary.LittleEndian.Uint16(payload[4*p+1:])
		if int(srcID) >= len(rs.sources) {
			return fmt.Errorf("provlog: record references source id %d before its entry", srcID)
		}
		if trial, src, ok := parseTrialSource(rs.sources[srcID]); ok {
			// A trial vote reusing the exec frame under a repeat-source
			// id: it consumes no sequence number (rs.seen untouched) and
			// routes to the store's vote ledger instead of the record log.
			return rs.applyTrialVote(payload, trial, src)
		}
		if rs.batchCodes == nil {
			// This record plus at most one per unread exec frame of
			// 4·P+8 bytes: never more than the segment's bytes allow.
			rows := min(replayBatch, 1+rs.unread/int64(4*p+8))
			rs.batchCodes = make([]uint32, 0, int(rows)*p)
		}
		for i := 0; i < p; i++ {
			c := binary.LittleEndian.Uint32(payload[4*i : 4*i+4])
			if int(c) >= rs.persisted[i] {
				return fmt.Errorf("provlog: record references code %d of parameter %d before its dict entry", c, i)
			}
			rs.batchCodes = append(rs.batchCodes, c)
		}
		out := pipeline.Outcome(payload[4*p])
		if out != pipeline.Succeed && out != pipeline.Fail && out != pipeline.OutcomeInconclusive {
			return fmt.Errorf("provlog: record with invalid outcome %d", out)
		}
		rs.seen++
		rs.batchOuts = append(rs.batchOuts, out)
		rs.batchSrc = append(rs.batchSrc, srcID)
		if len(rs.batchOuts) >= replayBatch {
			return rs.flush()
		}
	}
	return nil
}

// applyTrialVote decodes one trial-vote exec frame and loads it into the
// store's vote ledger. The writer logs each instance's votes once each and
// in trial order, and Store.LoadTrialVote refuses any other vote, so a
// repeated, skipped or reordered vote fails the replay naming its
// instance; nothing is sized from the trial index a frame names.
func (rs *replayState) applyTrialVote(payload []byte, trial int, src string) error {
	p := rs.space.Len()
	codes := make([]uint32, p) // the vote ledger keeps the instance, so each vote owns its codes
	for i := 0; i < p; i++ {
		c := binary.LittleEndian.Uint32(payload[4*i : 4*i+4])
		if int(c) >= rs.persisted[i] {
			return fmt.Errorf("provlog: trial vote references code %d of parameter %d before its dict entry", c, i)
		}
		codes[i] = c
	}
	out := pipeline.Outcome(payload[4*p])
	if out != pipeline.Succeed && out != pipeline.Fail {
		return fmt.Errorf("provlog: trial vote with invalid outcome %d", out)
	}
	in, err := rs.space.InstanceOfCodes(codes)
	if err != nil {
		return fmt.Errorf("provlog: %w", err)
	}
	return rs.st.LoadTrialVote(in, trial, out, src)
}

// replaySegment replays one segment into rs and returns the number of
// leading bytes that decoded cleanly. Torn data (short reads, checksum
// mismatches) stops the scan: in the final segment the intact prefix is the
// recovery point, anywhere else it is a hard error. lastGood < headerSize
// means even the header was torn and the segment holds nothing.
func replaySegment(sf segFile, rs *replayState, isFinal bool) (lastGood int64, err error) {
	f, err := os.Open(sf.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	sc := &scanner{r: bufio.NewReaderSize(f, 1<<16)}
	hb := make([]byte, headerSize)
	if _, err := io.ReadFull(sc.r, hb); err != nil {
		if isFinal && (err == io.EOF || err == io.ErrUnexpectedEOF) {
			return 0, nil
		}
		return 0, fmt.Errorf("provlog: %s: reading header: %w", filepath.Base(sf.path), err)
	}
	sc.off = headerSize
	h, err := decodeHeader(hb)
	if err != nil {
		if isFinal {
			return 0, nil
		}
		return 0, fmt.Errorf("provlog: %s: corrupt header", filepath.Base(sf.path))
	}
	if h.fingerprint != rs.space.Fingerprint() {
		return 0, fmt.Errorf("provlog: %s: log fingerprint %016x does not match space fingerprint %016x (different space?)",
			filepath.Base(sf.path), h.fingerprint, rs.space.Fingerprint())
	}
	if int(h.nParams) != rs.space.Len() {
		return 0, fmt.Errorf("provlog: %s: log has %d parameters, space has %d",
			filepath.Base(sf.path), h.nParams, rs.space.Len())
	}
	if h.segIndex != sf.index {
		return 0, fmt.Errorf("provlog: %s: header says segment %d", filepath.Base(sf.path), h.segIndex)
	}
	if h.firstSeq != uint64(rs.seen) {
		return 0, fmt.Errorf("provlog: %s: first sequence %d, but %d records precede it",
			filepath.Base(sf.path), h.firstSeq, rs.seen)
	}
	lastGood = sc.off
	for {
		typ, payload, err := sc.next(rs.space.Len())
		if err == io.EOF {
			return lastGood, rs.flush()
		}
		if err == errTorn {
			if isFinal {
				return lastGood, rs.flush()
			}
			return lastGood, fmt.Errorf("provlog: %s: corrupt frame at offset %d in sealed segment",
				filepath.Base(sf.path), lastGood)
		}
		if err != nil {
			return lastGood, fmt.Errorf("provlog: %s: %w", filepath.Base(sf.path), err)
		}
		// A file still being appended to can outgrow its size at open.
		rs.unread = max(fi.Size()-sc.off, 0)
		if err := rs.apply(typ, payload); err != nil {
			return lastGood, fmt.Errorf("%w (%s, offset %d)", err, filepath.Base(sf.path), lastGood)
		}
		lastGood = sc.off
	}
}

// replayDir rebuilds the store recorded under dir by replaying its
// segments in order, and returns the replay state, the segment list, and
// the intact byte length of the final segment (the recovery point a writer
// must truncate to before appending).
func replayDir(dir string, space *pipeline.Space) (*replayState, []segFile, int64, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(segs) > 0 && segs[0].index != 0 {
		return nil, nil, 0, fmt.Errorf("provlog: log starts at segment %d: the segments before it are missing", segs[0].index)
	}
	// Size the store from the segment bytes: every record costs at least an
	// exec frame, so this caps the record count within the dictionary
	// overhead and avoids incremental index growth during replay.
	var capEstimate int64
	execFrame := int64(4*space.Len() + 8)
	for _, sf := range segs {
		if fi, err := os.Stat(sf.path); err == nil && fi.Size() > headerSize {
			capEstimate += (fi.Size() - headerSize) / execFrame
		}
	}
	rs := newReplayState(space, provenance.NewStoreWithCapacity(space, int(capEstimate)))
	var lastGood int64
	for i, sf := range segs {
		if lastGood, err = replaySegment(sf, rs, i == len(segs)-1); err != nil {
			return nil, nil, 0, err
		}
	}
	return rs, segs, lastGood, nil
}

// Replay rebuilds a fully-indexed provenance store from the log in dir
// without modifying any file. Space must be constructed exactly as it was
// when the log was created (same spec); the segment headers' fingerprint
// enforces this. A torn final record — the signature of a crash
// mid-append — is skipped; the returned store holds exactly the intact
// prefix. Like Open, Replay refuses a directory an older version
// checkpointed.
func Replay(dir string, space *pipeline.Space) (*provenance.Store, error) {
	if err := refuseCheckpointed(dir); err != nil {
		return nil, err
	}
	rs, segs, _, err := replayDir(dir, space)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("provlog: no log segments in %s", dir)
	}
	return rs.st, nil
}
