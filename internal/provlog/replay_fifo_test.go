//go:build linux || darwin

package provlog

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/provenance"
)

// TestReplaySegmentOutgrowsItsSize replays a segment whose bytes outrun
// the size it had when replay opened it, as a segment still being
// appended to does. A FIFO reports size 0, so every frame lies past that
// size: replay must still decode every record, sizing each batch's code
// slab from no unread bytes rather than from a negative count.
func TestReplaySegmentOutgrowsItsSize(t *testing.T) {
	s := testSpace(t)
	ins, _, _ := testRecords(t, s, 40)
	seg := walSegment(s, frameRecords(s, ins))
	path := filepath.Join(t.TempDir(), "wal-000000.seg")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	wrote := make(chan error, 1)
	go func() {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err == nil {
			_, err = f.Write(seg)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		wrote <- err
	}()
	replayed := testSpace(t)
	rs := newReplayState(replayed, provenance.NewStore(replayed))
	if _, err := replaySegment(segFile{path: path}, rs, true); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if rs.st.Len() != len(ins) {
		t.Fatalf("replayed %d records, want %d", rs.st.Len(), len(ins))
	}
	for i, r := range rs.st.Records() {
		if r.Instance.String() != ins[i].String() || r.Outcome != pipeline.Fail {
			t.Fatalf("record %d = %v %v, want %v Fail", i, r.Instance, r.Outcome, ins[i])
		}
	}
}
