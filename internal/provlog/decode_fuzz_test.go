package provlog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/provenance"
)

// This file holds the decoders' defences against hostile bytes: the
// MANIFEST and tier-file parsers, and the tier-stack loader, must reject
// any count their input cannot hold before sizing an allocation from it.
// The fuzz targets re-seal the trailing CRC-32C of every input, so
// mutations reach the parsers proper instead of dying at the checksum.

// resealCRC returns a copy of data whose trailing four bytes are the
// CRC-32C of everything before them, as every MANIFEST and tier file ends.
func resealCRC(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) >= 4 {
		binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(out[:len(out)-4], ckptCRC))
	}
	return out
}

// baseTierFile assembles a legacy v01 base tier file around the given body
// (dictionary tables and rows): header with p parameters, footer with the
// given row count and watermark, sealed CRC. Only older versions wrote
// this format; the loader still reads it.
func baseTierFile(p uint32, body []byte, count, watermark, fingerprint uint64) []byte {
	b := []byte(ckptMagic)
	b = binary.LittleEndian.AppendUint32(b, p)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = append(b, body...)
	b = append(b, ckptFooterMagic...)
	b = binary.LittleEndian.AppendUint64(b, count)
	b = binary.LittleEndian.AppendUint64(b, watermark)
	b = binary.LittleEndian.AppendUint64(b, fingerprint)
	b = binary.LittleEndian.AppendUint32(b, 0)
	return resealCRC(b)
}

// decoderReproducer is one input that made a decoder size an allocation
// from a header field the bytes present could not back.
type decoderReproducer struct {
	name     string
	manifest bool // a MANIFEST; otherwise a tier file
	data     []byte
}

func decoderReproducers(fingerprint uint64) []decoderReproducer {
	// A 28-byte MANIFEST whose header claims 2^28 tiers (12.9 GB of
	// entries).
	m := []byte(manifestMagic)
	m = binary.LittleEndian.AppendUint64(m, fingerprint)
	m = binary.LittleEndian.AppendUint32(m, 0x10000000)
	m = append(m, make([]byte, 8)...)

	// The row size of a one-parameter tier is 23 bytes; its inverse mod
	// 2^64 makes count*rowSize wrap to exactly the one row byte present.
	const rowSize = 4*1 + 19
	inv := uint64(rowSize) // Newton's iteration doubles the correct low bits
	for i := 0; i < 5; i++ {
		inv *= 2 - rowSize*inv
	}
	wrapBody := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff} // no dict entries, no sources, one row byte

	return []decoderReproducer{
		{name: "manifest tier count 2^28", manifest: true, data: resealCRC(m)},
		{name: "tier parameter count 2^30", data: baseTierFile(1<<30, make([]byte, 12), 0, 0, fingerprint)},
		{name: "tier row count wraps", data: baseTierFile(1, wrapBody, inv, inv, fingerprint)},
	}
}

// validDecoderSeeds returns a well-formed base tier covering [0, 8), a
// delta tier covering [8, 12) and a MANIFEST naming them, cut from a small
// real history.
func validDecoderSeeds(tb testing.TB) (base, delta, manifest []byte, fingerprint uint64) {
	tb.Helper()
	s := testSpace(tb)
	st := provenance.NewStore(s)
	ins, outs, srcs := testRecords(tb, s, 12)
	for i := range ins {
		if err := st.Add(ins[i], outs[i], srcs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	fingerprint = s.Fingerprint()
	sn := st.Snapshot()
	persisted, sources := prefixTables(sn, s.Len(), 8)
	base, err := encodeTierRange(s, fingerprint, sn, 0, 8, persisted, sources)
	if err != nil {
		tb.Fatal(err)
	}
	persisted, sources = prefixTables(sn, s.Len(), 12)
	delta, err = encodeTierRange(s, fingerprint, sn, 8, 12, persisted, sources)
	if err != nil {
		tb.Fatal(err)
	}
	manifest = encodeManifest(fingerprint, []tierRef{
		{name: tierName(8, 12), firstSeq: 8, watermark: 12, count: 4, crc: tierCRC(delta)},
		{name: tierName(0, 8), firstSeq: 0, watermark: 8, count: 8, crc: tierCRC(base)},
	})
	// The seeds are only worth fuzzing from if they decode.
	for _, tier := range [][]byte{base, delta} {
		if _, err := parseTierStructure("seed.tier", tier); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := decodeManifest(manifest, fingerprint); err != nil {
		tb.Fatal(err)
	}
	return base, delta, manifest, fingerprint
}

// tierCRC returns a tier file's trailing CRC-32C, the checksum its MANIFEST
// entry binds.
func tierCRC(tier []byte) uint32 {
	if len(tier) < 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(tier[len(tier)-4:])
}

// v01Base re-frames a tier covering [0, w) in the legacy v01 base format:
// the same dictionary tables and rows under the v01 magics and footer.
func v01Base(tier []byte, p, w int, fingerprint uint64) []byte {
	body := tier[ckptHeaderSize : len(tier)-tierFooterSize]
	return baseTierFile(uint32(p), body, uint64(w), uint64(w), fingerprint)
}

// watermarkReproducer checkpoints a real 20-record session, then re-seals
// its MANIFEST with the base tier's watermark and count set to claim,
// returning the directory and the MANIFEST's size. The MANIFEST is
// CRC-valid and its chain checks out, but no file backs the claim, so the
// loader must reject it without sizing record slots from it (sized from
// the entry, they are 96 MiB at 2^20 and exhaust memory at 2^30).
func watermarkReproducer(t *testing.T, claim int) (string, int) {
	t.Helper()
	dir := t.TempDir()
	buildCheckpointed(t, dir, 20)
	s := testSpace(t)
	tiers, err := readManifest(dir, s.Fingerprint())
	if err != nil || len(tiers) != 1 {
		t.Fatalf("MANIFEST = %v, %v; want one tier", tiers, err)
	}
	tiers[0].watermark, tiers[0].count = claim, claim
	data := encodeManifest(s.Fingerprint(), tiers)
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, len(data)
}

// TestDecodersRejectUnbackedCounts feeds each reproducer to its decoder:
// it must be rejected, and the attempt must allocate no more than a small
// constant — never an amount read from the hostile header.
func TestDecodersRejectUnbackedCounts(t *testing.T) {
	_, _, _, fp := validDecoderSeeds(t)
	reject := func(t *testing.T, size int, decode func() error) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("decoder accepted the input")
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("decoder allocated %d bytes rejecting a %d-byte input", got, size)
		}
	}
	for _, rep := range decoderReproducers(fp) {
		t.Run(rep.name, func(t *testing.T) {
			reject(t, len(rep.data), func() error {
				if rep.manifest {
					_, err := decodeManifest(rep.data, fp)
					return err
				}
				_, err := parseTierStructure("repro.tier", rep.data)
				return err
			})
		})
	}
	// A CRC-valid MANIFEST whose entry claims more records than its tier
	// file holds.
	for _, k := range []int{20, 26, 30} {
		t.Run(fmt.Sprintf("manifest watermark 2^%d", k), func(t *testing.T) {
			dir, size := watermarkReproducer(t, 1<<k)
			s := testSpace(t)
			reject(t, size, func() error {
				tiers, err := readManifest(dir, s.Fingerprint())
				if err != nil || tiers[0].watermark != 1<<k {
					t.Fatalf("the reproducer MANIFEST must decode to its claim: %+v, %v", tiers, err)
				}
				_, _, err = loadTierPlan(dir, tiers, s, 1)
				return err
			})
		})
	}
}

func FuzzDecodeManifest(f *testing.F) {
	_, _, valid, fp := validDecoderSeeds(f)
	f.Add(valid)
	for _, rep := range decoderReproducers(fp) {
		f.Add(rep.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = resealCRC(data)
		tiers, err := decodeManifest(data, fp)
		if err != nil {
			return
		}
		// Whatever decodes is a valid chain and re-encodes to the very
		// bytes it came from.
		if err := checkTierChain(tiers); err != nil {
			t.Fatalf("decoded an invalid chain: %v", err)
		}
		if enc := encodeManifest(fp, tiers); !bytes.Equal(enc, data) {
			t.Fatalf("decoded %+v does not re-encode to its input", tiers)
		}
	})
}

func FuzzParseTierStructure(f *testing.F) {
	base, delta, _, fp := validDecoderSeeds(f)
	f.Add(base)
	f.Add(delta)
	for _, rep := range decoderReproducers(fp) {
		f.Add(rep.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ti, err := parseTierStructure("fuzz.tier", resealCRC(data))
		if err != nil {
			return
		}
		// Whatever parses has regions its sizes can back.
		if ti.p < 0 || len(ti.persisted) != ti.p {
			t.Fatalf("parsed %d parameters with %d tables", ti.p, len(ti.persisted))
		}
		if ti.firstSeq < 0 || ti.count != ti.watermark-ti.firstSeq {
			t.Fatalf("parsed %d rows for range [%d, %d)", ti.count, ti.firstSeq, ti.watermark)
		}
		if ti.count < 0 || len(ti.rows) != ti.count*(4*ti.p+19) {
			t.Fatalf("parsed %d rows from a %d-byte row section", ti.count, len(ti.rows))
		}
	})
}

func FuzzLoadTierPlan(f *testing.F) {
	base, _, _, fp := validDecoderSeeds(f)
	p := testSpace(f).Len()
	f.Add(base, uint64(0), uint64(8), uint64(8))
	f.Add(v01Base(base, p, 8, fp), uint64(0), uint64(8), uint64(8))
	f.Add(base, uint64(0), uint64(1<<30), uint64(1<<30))
	f.Fuzz(func(t *testing.T, tier []byte, firstSeq, watermark, count uint64) {
		// One MANIFEST entry naming one tier file, its CRC bound to the
		// re-sealed bytes so mutations reach the dictionary and row decode.
		data := resealCRC(tier)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fuzz.tier"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ref := tierRef{name: "fuzz.tier", firstSeq: int(firstSeq), watermark: int(watermark), count: int(count), crc: tierCRC(data)}
		s := testSpace(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, cs, err := loadTierPlan(dir, []tierRef{ref}, s, runtime.GOMAXPROCS(0))
		runtime.ReadMemStats(&after)
		// The loader sizes nothing from the entry: its memory tracks the
		// bytes of the file it matched.
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20+1024*uint64(len(data)) {
			t.Fatalf("loader allocated %d bytes for a %d-byte tier", got, len(data))
		}
		if err != nil {
			return
		}
		if st.Len() != ref.watermark || cs.watermark != ref.watermark {
			t.Fatalf("loaded %d records (watermark %d) from an entry claiming %d", st.Len(), cs.watermark, ref.watermark)
		}
	})
}

// sealFrames turns fuzz input into a CRC-valid WAL frame stream: the input
// is a sequence of chunks, each a uint16 LE length followed by that many
// bytes — one frame's type byte and payload — and every chunk is sealed
// with the frame checksum, so mutations reach replayState.apply instead of
// dying at the CRC. A final chunk shorter than its length is sealed as is.
func sealFrames(data []byte) []byte {
	var out []byte
	for len(data) >= 2 {
		n := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		n = min(n, len(data))
		start := len(out)
		out = append(out, data[:n]...)
		out = appendCRC(out, start)
		data = data[n:]
	}
	return out
}

// chunkFrames is sealFrames' inverse for seeding: it splits a segment's
// frame stream (header stripped) into length-prefixed chunks, checksums
// dropped.
func chunkFrames(tb testing.TB, nParams int, frames []byte) []byte {
	tb.Helper()
	sc := &scanner{r: bufio.NewReader(bytes.NewReader(frames))}
	var out []byte
	for {
		start := sc.off
		if _, _, err := sc.next(nParams); err != nil {
			break
		}
		frame := frames[start : sc.off-4]
		out = binary.LittleEndian.AppendUint16(out, uint16(len(frame)))
		out = append(out, frame...)
	}
	return out
}

// walSegment is a first segment over s holding the given frames.
func walSegment(s *pipeline.Space, frames []byte) []byte {
	seg := encodeHeader(header{fingerprint: s.Fingerprint(), nParams: uint32(s.Len())})
	return append(seg, frames...)
}

// trialIndexFrames frames one trial vote at the given index for the
// all-zero-codes instance of testSpace, dictionary entries first — with
// a header, the 142-byte reproducer when trial is 2^24.
func trialIndexFrames(tb testing.TB, trial int) []byte {
	s := testSpace(tb)
	in := pipeline.MustInstance(s, pipeline.Ord(0.1), pipeline.Cat("lbfgs"), pipeline.Ord(1))
	var b []byte
	for i := 0; i < s.Len(); i++ {
		b = appendDictFrame(b, uint16(i), 0, in.Value(i))
	}
	b = appendSourceFrame(b, 0, trialSourceName(trial, "x"))
	return appendExecFrame(b, in, pipeline.Fail, 0)
}

// TestReplayRejectsTrialHoles replays segments whose trial votes name an
// index the stream never reaches: replay must fail rather than end with
// holes in the vote ledger, and must not size anything from the index.
func TestReplayRejectsTrialHoles(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trial int
	}{
		{"trial 2^24", 1 << 24},
		{"trial 2^20", 1 << 20},
		{"trial 1 without trial 0", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpace(t)
			seg := walSegment(s, trialIndexFrames(t, tc.trial))
			dir := t.TempDir()
			if err := os.WriteFile(segPath(dir, 0), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Replay(dir, testSpace(t))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("replay of a vote ledger with holes succeeded")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("replay allocated %d bytes for a %d-byte segment", got, len(seg))
			}
		})
	}
}

// realSegmentFrames returns the frames (header stripped) of a segment the
// log wrote itself: dict, source and exec frames for a few records, and
// trial-vote frames for a flaky instance.
func realSegmentFrames(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	s := testSpace(tb)
	l, st, err := Open(dir, s)
	if err != nil {
		tb.Fatal(err)
	}
	st.SetTrialPolicy(pipeline.FlakyPolicy{MinTrials: 3, MaxTrials: 5, Quorum: 3})
	flaky := pipeline.MustInstance(s, pipeline.Ord(42), pipeline.Cat("saga"), pipeline.Ord(4))
	for _, out := range []pipeline.Outcome{pipeline.Fail, pipeline.Succeed} {
		if _, err := st.AddTrial(flaky, out, "executor"); err != nil {
			tb.Fatal(err)
		}
	}
	ins, outs, srcs := testRecords(tb, s, 8)
	for i := range ins {
		if err := st.Add(ins[i], outs[i], srcs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	seg, err := os.ReadFile(segPath(dir, 0))
	if err != nil {
		tb.Fatal(err)
	}
	return seg[headerSize:]
}

func FuzzReplaySegment(f *testing.F) {
	nParams := testSpace(f).Len()
	for _, frames := range [][]byte{realSegmentFrames(f), trialIndexFrames(f, 1<<24)} {
		seed := chunkFrames(f, nParams, frames)
		// The seeds are only worth fuzzing from if they seal back to the
		// very frames they came from.
		if !bytes.Equal(sealFrames(seed), frames) {
			f.Fatal("chunked seed does not reseal to its frames")
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := testSpace(t)
		seg := walSegment(s, sealFrames(data))
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 0), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := Replay(dir, s)
		runtime.ReadMemStats(&after)
		// Replay sizes nothing from what a frame claims: its memory
		// tracks the bytes it read.
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20+1024*uint64(len(seg)) {
			t.Fatalf("replay allocated %d bytes for a %d-byte segment", got, len(seg))
		}
		if err != nil {
			return
		}
		// Whatever replays is a dense log and a hole-free vote ledger.
		for i, r := range st.Records() {
			if r.Seq != i {
				t.Fatalf("record %d has seq %d", i, r.Seq)
			}
		}
		for _, tr := range st.TrialVotesAll() {
			for i, v := range tr.Votes {
				if v.Outcome != pipeline.Succeed && v.Outcome != pipeline.Fail {
					t.Fatalf("trial %d of %v replayed as %v", i, tr.Instance, v.Outcome)
				}
			}
		}
	})
}
