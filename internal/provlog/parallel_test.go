package provlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/provenance"
)

// loadCheckpoint loads the tier stack the directory's MANIFEST names,
// decoding on par goroutines.
func loadCheckpoint(dir string, space *pipeline.Space, par int) (*provenance.Store, *ckptState, error) {
	tiers, err := readManifest(dir, space.Fingerprint())
	if err != nil {
		return nil, nil, err
	}
	return loadTierPlan(dir, tiers, space, par)
}

// This file tests the range-parallel checkpoint decode against the
// sequential baseline: same store, same queries, and — on a corrupt file —
// the same error the sequential scan would have reported.

// bigSpace is a space wide enough to enumerate thousands of distinct
// instances by mixed radix.
func bigSpace(t *testing.T) *pipeline.Space {
	t.Helper()
	dom := func(n int) []pipeline.Value {
		d := make([]pipeline.Value, n)
		for i := range d {
			d[i] = pipeline.Ord(float64(i))
		}
		return d
	}
	return pipeline.MustSpace(
		pipeline.Parameter{Name: "a", Kind: pipeline.Ordinal, Domain: dom(16)},
		pipeline.Parameter{Name: "b", Kind: pipeline.Ordinal, Domain: dom(16)},
		pipeline.Parameter{Name: "c", Kind: pipeline.Ordinal, Domain: dom(16)},
		pipeline.Parameter{Name: "d", Kind: pipeline.Ordinal, Domain: dom(2)},
	)
}

// bigCheckpoint writes a checkpoint of n distinct records (n <= 8192) and
// returns the recorded history.
func bigCheckpoint(t *testing.T, dir string, n int) ([]pipeline.Instance, []pipeline.Outcome, []string) {
	t.Helper()
	s := bigSpace(t)
	l, st, err := Open(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]pipeline.Instance, n)
	outs := make([]pipeline.Outcome, n)
	srcs := make([]string, n)
	entries := make([]provenance.Entry, n)
	for x := 0; x < n; x++ {
		ins[x] = pipeline.MustInstance(s,
			pipeline.Ord(float64(x%16)), pipeline.Ord(float64((x/16)%16)),
			pipeline.Ord(float64((x/256)%16)), pipeline.Ord(float64(x/4096)))
		outs[x] = pipeline.Succeed
		if x%5 == 0 {
			outs[x] = pipeline.Fail
		}
		srcs[x] = fmt.Sprintf("s%d", x%3)
		entries[x] = provenance.Entry{Instance: ins[x], Outcome: outs[x], Source: srcs[x]}
	}
	if _, err := st.AddBatch(entries); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return ins, outs, srcs
}

// TestOpenParallelDecodeDifferential rebuilds the same checkpoint dir
// sequentially and with decode fan-out — 8192 rows, enough for two ranges
// past minRowsPerDecoder — and requires identical stores on every query
// surface. Open sizes its fan-out from GOMAXPROCS; the test reaches each
// case through replayDir's par argument.
func TestOpenParallelDecodeDifferential(t *testing.T) {
	dir := t.TempDir()
	ins, outs, srcs := bigCheckpoint(t, dir, 2*minRowsPerDecoder)
	load := func(par int) *provenance.Store {
		rs, _, _, err := replayDir(dir, bigSpace(t), par)
		if err != nil {
			t.Fatalf("replayDir(par=%d): %v", par, err)
		}
		return rs.st
	}
	seq := load(1)
	assertStoreMatches(t, seq, ins, outs, srcs)
	for _, par := range []int{2, 8} {
		assertStoresEqual(t, seq, load(par))
	}
	l, st, err := Open(dir, bigSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	assertStoresEqual(t, seq, st)
}

// rewriteTier replaces the single tier of dir's MANIFEST with data,
// re-sealing its CRC and re-binding its MANIFEST entry, so only the
// row-level validation can catch a corrupted row.
func rewriteTier(t *testing.T, dir string, space *pipeline.Space, data []byte) {
	t.Helper()
	tiers, err := readManifest(dir, space.Fingerprint())
	if err != nil || len(tiers) != 1 {
		t.Fatalf("MANIFEST = %v, %v; want one tier", tiers, err)
	}
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(data[:len(data)-4], ckptCRC))
	if err := os.WriteFile(filepath.Join(dir, tiers[0].name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	tiers[0].crc = tierCRC(data)
	if err := publishManifest(dir, space.Fingerprint(), tiers); err != nil {
		t.Fatal(err)
	}
}

// corruptRow rewrites one byte inside a row of dir's base tier covering
// [0, w).
func corruptRow(t *testing.T, dir string, p, w, row, fieldOff int, b byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, tierName(0, w)))
	if err != nil {
		t.Fatal(err)
	}
	rowSize := 4*p + 19
	rowsOff := len(data) - tierFooterSize - w*rowSize
	data[rowsOff+row*rowSize+fieldOff] = b
	rewriteTier(t, dir, bigSpace(t), data)
}

// TestParallelDecodeReportsSequentialError corrupts rows in both halves of
// a two-range checkpoint and requires the parallel decode to surface
// exactly the error the sequential scan reports: the lowest corrupt row.
func TestParallelDecodeReportsSequentialError(t *testing.T) {
	w := 2 * minRowsPerDecoder
	p := bigSpace(t).Len()
	outcomeOff := 8 + 4*p // hash u64, then p codes, then the outcome byte
	for _, rows := range [][]int{
		{w - 1},        // second range only
		{100, w - 100}, // one per range: row 100 must win
		{7000, w - 1},  // two in the second range: row 7000 must win
	} {
		dir := t.TempDir()
		bigCheckpoint(t, dir, w)
		for _, row := range rows {
			corruptRow(t, dir, p, w, row, outcomeOff, 77)
		}
		want := fmt.Sprintf("row %d has outcome 77", rows[0])
		for _, par := range []int{1, 8} {
			_, _, err := loadCheckpoint(dir, bigSpace(t), par)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("par=%d: error = %v, want %q", par, err, want)
			}
		}
	}
}

// TestDecodeRejectsDuplicateSeq duplicates one row's sequence number and
// requires both decode modes to reject the file before adoption.
func TestDecodeRejectsDuplicateSeq(t *testing.T) {
	w := 2 * minRowsPerDecoder
	p := bigSpace(t).Len()
	dir := t.TempDir()
	bigCheckpoint(t, dir, w)
	data, err := os.ReadFile(filepath.Join(dir, tierName(0, w)))
	if err != nil {
		t.Fatal(err)
	}
	rowSize := 4*p + 19
	rowsOff := len(data) - tierFooterSize - w*rowSize
	seqOff := 8 + 4*p + 3 // hash, codes, outcome byte, source u16, then seq
	copy(data[rowsOff+rowSize+seqOff:], data[rowsOff+seqOff:rowsOff+seqOff+8])
	rewriteTier(t, dir, bigSpace(t), data)
	for _, par := range []int{1, 8} {
		_, _, err := loadCheckpoint(dir, bigSpace(t), par)
		if err == nil || !strings.Contains(err.Error(), "duplicate seq") {
			t.Fatalf("par=%d: error = %v, want duplicate seq", par, err)
		}
	}
}
