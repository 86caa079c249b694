package provlog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"repro/internal/provenance"
)

// This file holds the decoders' defences against hostile bytes: the
// MANIFEST and tier-file parsers must reject any count their input cannot
// hold before sizing an allocation from it. The fuzz targets re-seal the
// trailing CRC-32C of every input, so mutations reach the parsers proper
// instead of dying at the checksum.

// resealCRC returns a copy of data whose trailing four bytes are the
// CRC-32C of everything before them, as every MANIFEST and tier file ends.
func resealCRC(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) >= 4 {
		binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(out[:len(out)-4], ckptCRC))
	}
	return out
}

// baseTierFile assembles a base-format tier file around the given body
// (dictionary tables and rows): header with p parameters, footer with the
// given row count and watermark, sealed CRC.
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

// validDecoderSeeds returns a well-formed base tier, delta tier and
// MANIFEST cut from a small real history.
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
	base, err := encodeCheckpoint(s, fingerprint, st.Snapshot(), 8)
	if err != nil {
		tb.Fatal(err)
	}
	persisted := make([]int, s.Len())
	for i := range persisted {
		persisted[i] = s.NumCodes(i)
	}
	delta, err = encodeTierRange(s, fingerprint, st.Snapshot(), 8, 12, persisted, []string{"executor", "seed", "csv"})
	if err != nil {
		tb.Fatal(err)
	}
	manifest = encodeManifest(fingerprint, []tierRef{
		{name: "tier-8-12.tier", firstSeq: 8, watermark: 12, count: 4, crc: 7},
		{name: "ckpt-8.ckpt", firstSeq: 0, watermark: 8, count: 8, crc: 9},
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

// TestDecodersRejectUnbackedCounts feeds each reproducer to its decoder:
// it must be rejected, and the attempt must allocate no more than a small
// constant — never an amount read from the hostile header.
func TestDecodersRejectUnbackedCounts(t *testing.T) {
	_, _, _, fp := validDecoderSeeds(t)
	for _, rep := range decoderReproducers(fp) {
		t.Run(rep.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var err error
			if rep.manifest {
				_, err = decodeManifest(rep.data, fp)
			} else {
				_, err = parseTierStructure("repro.tier", rep.data)
			}
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("decoder accepted the input")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("decoder allocated %d bytes rejecting a %d-byte input", got, len(rep.data))
			}
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
