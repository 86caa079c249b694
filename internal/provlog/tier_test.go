package provlog

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/provenance"
)

// This file tests the LSM-tiered checkpoint path: delta tiers, the
// manifest, the merge policy, crash recovery at every merge stage, manifest
// loss, and state directories older versions wrote.

// tierNames returns the log's live tier list as "firstSeq-watermark"
// strings, newest first.
func tierNames(l *Log) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.tiers))
	for i, t := range l.tiers {
		out[i] = fmt.Sprintf("%d-%d", t.firstSeq, t.watermark)
	}
	return out
}

// TestTieredCheckpointsAccumulate takes three checkpoints with shrinking
// deltas under a no-merge-inducing policy and verifies each one writes
// only its delta: one base tier plus two delta tiers, all named by the
// manifest, with the reopened log seeing the same tier list.
func TestTieredCheckpointsAccumulate(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	// SizeRatio 1 merges only when an older tier is smaller than a newer
	// one; shrinking deltas never trip it.
	l, st, err := Open(dir, s, withSegmentSize(256),
		WithMergePolicy(MergePolicy{MaxTiers: 8, SizeRatio: 1}))
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 47)
	fillStore(t, st, ins[:30], outs[:30], srcs[:30])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fillStore(t, st, ins[30:42], outs[30:42], srcs[30:42])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fillStore(t, st, ins[42:], outs[42:], srcs[42:])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := []string{"42-47", "30-42", "0-30"}
	if got := tierNames(l); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("tiers = %v, want %v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// On disk: exactly the three tiers, and a manifest binding them.
	if got := manifestTiers(t, dir, s); !slices.Equal(got, want) {
		t.Fatalf("MANIFEST tiers = %v, want %v", got, want)
	}

	l2, st2, err := Open(dir, testSpace(t), withSegmentSize(256))
	if err != nil {
		t.Fatal(err)
	}
	assertStoreMatches(t, st2, ins, outs, srcs)
	if got := tierNames(l2); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("reopened tiers = %v, want %v", got, want)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTierMergeFullRewrite pins MaxTiers to 1: every checkpoint must
// settle back to a single base tier, rewriting the whole history, with no
// delta tier left behind.
func TestTierMergeFullRewrite(t *testing.T) {
	dir := t.TempDir()
	s := testSpace(t)
	l, st, err := Open(dir, s, withSegmentSize(256),
		WithMergePolicy(MergePolicy{MaxTiers: 1, SizeRatio: 1}))
	if err != nil {
		t.Fatal(err)
	}
	ins, outs, srcs := testRecords(t, s, 40)
	fillStore(t, st, ins[:25], outs[:25], srcs[:25])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fillStore(t, st, ins[25:], outs[25:], srcs[25:])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := tierNames(l); len(got) != 1 || got[0] != "0-40" {
		t.Fatalf("tiers = %v, want [0-40]", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := manifestTiers(t, dir, s); !slices.Equal(got, []string{"0-40"}) {
		t.Fatalf("MANIFEST tiers = %v, want exactly [0-40]", got)
	}
	l2, st2, err := Open(dir, testSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertStoreMatches(t, st2, ins, outs, srcs)
}

// TestTieredDifferential drives randomized histories through a tiered log
// — random policy, random checkpoint placement, with and without a live
// WAL suffix past the last checkpoint — against a twin directory that
// holds the same records as pure WAL. Both must replay to identical
// stores on every indexed query surface.
func TestTieredDifferential(t *testing.T) {
	policies := []MergePolicy{
		{},                          // defaults
		{MaxTiers: 8, SizeRatio: 1}, // accumulate tiers
		{MaxTiers: 2, SizeRatio: 2}, // merge aggressively
		{MaxTiers: 1, SizeRatio: 1}, // legacy full rewrite
	}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			n := 20 + r.Intn(60)
			segSize := int64(128 + r.Intn(2048))
			policy := policies[r.Intn(len(policies))]
			nCkpts := 1 + r.Intn(4)
			at := map[int]bool{}
			for len(at) < nCkpts {
				at[1+r.Intn(n)] = true // after record i; n means no live suffix
			}

			s := testSpace(t)
			ins, outs, srcs := testRecords(t, s, n)
			// Instances bind to their space; the WAL twin records the same
			// history rebuilt over its own independently constructed space.
			sW := testSpace(t)
			insW, _, _ := testRecords(t, sW, n)
			tieredDir, walDir := t.TempDir(), t.TempDir()
			lt, stT, err := Open(tieredDir, s, withSegmentSize(segSize), WithMergePolicy(policy))
			if err != nil {
				t.Fatal(err)
			}
			lw, stW, err := Open(walDir, sW, withSegmentSize(segSize))
			if err != nil {
				t.Fatal(err)
			}
			for i := range ins {
				if err := stT.Add(ins[i], outs[i], srcs[i]); err != nil {
					t.Fatal(err)
				}
				if err := stW.Add(insW[i], outs[i], srcs[i]); err != nil {
					t.Fatal(err)
				}
				if at[i+1] {
					if err := lt.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := lt.Close(); err != nil {
				t.Fatal(err)
			}
			if err := lw.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(tieredDir, manifestName)); err != nil {
				t.Fatalf("no manifest after %d checkpoints: %v", nCkpts, err)
			}

			viaTiers, err := Replay(tieredDir, testSpace(t))
			if err != nil {
				t.Fatal(err)
			}
			viaWAL, err := Replay(walDir, testSpace(t))
			if err != nil {
				t.Fatal(err)
			}
			assertStoreMatches(t, viaTiers, ins, outs, srcs)
			assertStoresEqual(t, viaWAL, viaTiers)
		})
	}
}

// TestTierMergeCrashTorture kills the third checkpoint of a
// merge-inducing session at every stage — the delta tier's temp write and
// rename, the merged tier's temp write and rename, the manifest publish,
// and mid-collection — and verifies Open recovers the identical store
// each time, keeps accepting appends, and that the next clean checkpoint
// settles the directory.
func TestTierMergeCrashTorture(t *testing.T) {
	// Policy chosen so checkpoint #3 triggers exactly one merge: tiers
	// [10, 12, 30] exceed MaxTiers 2, merging to [22, 30], which settles.
	cases := []struct {
		stage string
		nth   int // crash at the nth occurrence of stage
	}{
		{"tmp-written", 1}, // delta tier temp file
		{"tmp-written", 2}, // merged tier temp file
		{"renamed", 1},     // delta tier durable
		{"renamed", 2},     // merged tier durable
		{"manifest", 1},    // new tier list published
		{"gc", 1},          // first superseded file about to go
		{"gc", 2},          // mid-collection
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-%d", tc.stage, tc.nth), func(t *testing.T) {
			dir := t.TempDir()
			s := testSpace(t)
			l, st, err := Open(dir, s, withSegmentSize(256),
				WithMergePolicy(MergePolicy{MaxTiers: 2, SizeRatio: 1}))
			if err != nil {
				t.Fatal(err)
			}
			ins, outs, srcs := testRecords(t, s, 52)
			fillStore(t, st, ins[:30], outs[:30], srcs[:30])
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			fillStore(t, st, ins[30:42], outs[30:42], srcs[30:42])
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			fillStore(t, st, ins[42:], outs[42:], srcs[42:])

			seen := 0
			ckptTestHook = func(got string) error {
				if got == tc.stage {
					seen++
					if seen == tc.nth {
						return fmt.Errorf("injected crash at %s #%d", got, seen)
					}
				}
				return nil
			}
			err = l.Checkpoint()
			ckptTestHook = nil
			if err == nil || !strings.Contains(err.Error(), "injected crash") {
				t.Fatalf("Checkpoint = %v, want the injected crash", err)
			}
			if seen < tc.nth {
				t.Fatalf("stage %s occurred %d times, test wanted occurrence %d", tc.stage, seen, tc.nth)
			}
			// Simulate the kill: abandon the handle, releasing only the flock.
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// Open must recover the full history regardless of which file
			// operations landed before the crash.
			l2, st2, err := Open(dir, testSpace(t), withSegmentSize(256),
				WithMergePolicy(MergePolicy{MaxTiers: 2, SizeRatio: 1}))
			if err != nil {
				t.Fatalf("Open after crash at %s #%d: %v", tc.stage, tc.nth, err)
			}
			assertStoreMatches(t, st2, ins, outs, srcs)

			// The session keeps going: more records, then a clean checkpoint
			// that finishes whatever the crashed one left half-done.
			more, mouts, msrcs := testRecords(t, st2.Space(), len(ins)+8)
			for i := len(ins); i < len(more); i++ {
				if err := st2.Add(more[i], mouts[i], msrcs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := l2.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := Replay(dir, testSpace(t))
			if err != nil {
				t.Fatal(err)
			}
			assertStoreMatches(t, got, more, mouts, msrcs)

			// After the clean checkpoint, the directory holds no debris: every
			// tier file on disk is named by the manifest.
			if got := manifestTiers(t, dir, s); len(got) == 0 {
				t.Fatal("no tiers after the recovery checkpoint")
			}
		})
	}
}

// TestManifestLossFallback deletes, and separately corrupts, the MANIFEST
// of a multi-tier directory. With the WAL intact, Open replays it to the
// identical store, and the next checkpoint writes a fresh base and
// collects every stale tier file. With the WAL's prefix collected, Open
// fails with an error that names the MANIFEST, never a partial store.
func TestManifestLossFallback(t *testing.T) {
	const n = 47
	build := func(t *testing.T, collect bool) string {
		dir := t.TempDir()
		s := testSpace(t)
		l, st, err := Open(dir, s, withSegmentSize(256),
			WithMergePolicy(MergePolicy{MaxTiers: 8, SizeRatio: 1}))
		if err != nil {
			t.Fatal(err)
		}
		ins, outs, srcs := testRecords(t, s, n)
		for _, w := range [][2]int{{0, 30}, {30, 42}, {42, 47}} {
			fillStore(t, st, ins[w[0]:w[1]], outs[w[0]:w[1]], srcs[w[0]:w[1]])
			if collect {
				if err := l.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !collect {
			// The same three tiers, published by hand so no segment is
			// collected: the shape a crash between a MANIFEST publish and
			// its GC leaves.
			publishTiers(t, dir, st, 30, 42, 47)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := loadedWatermark(t, dir, testSpace(t)); got != n {
			t.Fatalf("intact MANIFEST loaded at %d, want %d", got, n)
		}
		if segs, _ := listSegments(dir); (segs[0].index != 0) != collect {
			t.Fatalf("first segment is %d, want the prefix collected = %v", segs[0].index, collect)
		}
		return dir
	}
	lose := map[string]func(t *testing.T, path string){
		"deleted": func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		},
		"corrupt": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for _, how := range []string{"deleted", "corrupt"} {
		t.Run(how, func(t *testing.T) {
			t.Run("wal-intact", func(t *testing.T) {
				dir := build(t, false)
				want, err := Replay(dir, testSpace(t))
				if err != nil {
					t.Fatal(err)
				}
				lose[how](t, filepath.Join(dir, manifestName))
				if got := loadedWatermark(t, dir, testSpace(t)); got != 0 {
					t.Fatalf("loaded a checkpoint at %d without a MANIFEST", got)
				}
				s := testSpace(t)
				l, st, err := Open(dir, s, WithMergePolicy(MergePolicy{MaxTiers: 8, SizeRatio: 1}))
				if err != nil {
					t.Fatal(err)
				}
				assertStoresEqual(t, want, st)
				ins, outs, srcs := testRecords(t, s, n+5)
				fillStore(t, st, ins[n:], outs[n:], srcs[n:])
				if err := l.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				// A fresh base, and no tier of the lost MANIFEST left.
				if got := manifestTiers(t, dir, s); !slices.Equal(got, []string{fmt.Sprintf("0-%d", n+5)}) {
					t.Fatalf("tiers after the next checkpoint = %v, want [0-%d]", got, n+5)
				}
				got, err := Replay(dir, testSpace(t))
				if err != nil {
					t.Fatal(err)
				}
				assertStoreMatches(t, got, ins, outs, srcs)
			})
			t.Run("prefix-collected", func(t *testing.T) {
				dir := build(t, true)
				lose[how](t, filepath.Join(dir, manifestName))
				l, st, err := Open(dir, testSpace(t))
				if err == nil {
					l.Close()
					t.Fatalf("Open without a MANIFEST over a collected WAL returned %d records", st.Len())
				}
				if !strings.Contains(err.Error(), "no loadable checkpoint") || !strings.Contains(err.Error(), manifestName) {
					t.Fatalf("error = %v, want the collected-prefix error naming the %s", err, manifestName)
				}
				if _, err := Replay(dir, testSpace(t)); err == nil {
					t.Fatal("Replay without a MANIFEST over a collected WAL succeeded")
				}
			})
		})
	}
}

// legacyDir assembles a state directory the previous on-disk layout wrote
// (committed under testdata/, made by the CLI of the version before tiers
// took one format): "legacy-v01-base" is a polygamy DDT session compacted
// into a v01 base, ckpt-0000000000000110.ckpt; "legacy-v02-delta" is the
// same base after a stacked resume and a second compaction, which stacked
// a v02 delta tier on it. The delta fixture holds only the files that
// second compaction changed — MANIFEST, delta tier, active segment — over
// the base fixture's base tier and space.json, which it shares byte for
// byte.
func legacyDir(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	if name != "legacy-v01-base" {
		copyDir(t, filepath.Join("testdata", "legacy-v01-base"), dir, func(f string) bool {
			return strings.HasPrefix(f, "ckpt-") || f == spaceFile
		})
	}
	copyDir(t, filepath.Join("testdata", name), dir, func(string) bool { return true })
	return dir
}

// storeDigest hashes a store's records in execution order.
func storeDigest(st *provenance.Store) string {
	h := sha256.New()
	sn := st.Snapshot()
	for i := 0; i < sn.Len(); i++ {
		r := sn.At(i)
		fmt.Fprintf(h, "%d %s %v %s\n", r.Seq, r.Instance.Key(), r.Outcome, r.Source)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestLegacyStateDirs opens state directories whose MANIFEST names a v01
// base tier: each must open to the store the writing version's own Replay
// returned (length and digest pinned from it), and a checkpoint that
// merges down to sequence 0 must rewrite the base in the one tier format
// and collect the v01 file.
func TestLegacyStateDirs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		digest string
		tiers  []string
	}{
		{"legacy-v01-base", 110, "e0b2fbbc95ddb96371c5a69a4f3fd75445fdbd6c16594b4ff087c9480056274a", []string{"0-110"}},
		{"legacy-v02-delta", 149, "96dba9a4a4bea7513fa63a46090eda110e419eb58fab7311590d19f97fffc5dc", []string{"110-149", "0-110"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := legacyDir(t, tc.name)
			s, err := ReadSpace(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := manifestTiers(t, dir, s); !slices.Equal(got, tc.tiers) {
				t.Fatalf("fixture tiers = %v, want %v", got, tc.tiers)
			}
			got, err := Replay(dir, s)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != tc.n || storeDigest(got) != tc.digest {
				t.Fatalf("Replay = %d records, digest %s; want %d, %s", got.Len(), storeDigest(got), tc.n, tc.digest)
			}

			s, err = ReadSpace(dir)
			if err != nil {
				t.Fatal(err)
			}
			l, st, err := Open(dir, s, WithMergePolicy(MergePolicy{MaxTiers: 1, SizeRatio: 1}))
			if err != nil {
				t.Fatal(err)
			}
			if st.Len() != tc.n || storeDigest(st) != tc.digest {
				t.Fatalf("Open = %d records, digest %s; want %d, %s", st.Len(), storeDigest(st), tc.n, tc.digest)
			}
			// Three instances the session never ran, so the checkpoint is not
			// a no-op.
			added := 0
			for x := 0; added < 3; x++ {
				vals := make([]pipeline.Value, s.Len())
				for i, rest := 0, x; i < s.Len(); i++ {
					dom := s.At(i).Domain
					vals[i] = dom[rest%len(dom)]
					rest /= len(dom)
				}
				in, err := pipeline.NewInstance(s, vals)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := st.Lookup(in); ok {
					continue
				}
				if err := st.Add(in, pipeline.Succeed, "legacy-test"); err != nil {
					t.Fatal(err)
				}
				added++
			}
			want := storeDigest(st)
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got := manifestTiers(t, dir, s); !slices.Equal(got, []string{fmt.Sprintf("0-%d", tc.n+3)}) {
				t.Fatalf("tiers after the merging checkpoint = %v, want [0-%d]", got, tc.n+3)
			}
			if names, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt")); len(names) != 0 {
				t.Fatalf("legacy base tiers survived the merge to sequence 0: %v", names)
			}
			s, err = ReadSpace(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, err = Replay(dir, s)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != tc.n+3 || storeDigest(got) != want {
				t.Fatalf("after the checkpoint Replay = %d records, digest %s; want %d, %s", got.Len(), storeDigest(got), tc.n+3, want)
			}
		})
	}
}

// TestMergePolicyWantMerge pins the policy arithmetic.
func TestMergePolicyWantMerge(t *testing.T) {
	mk := func(counts ...int) []tierRef {
		tiers := make([]tierRef, len(counts))
		w := 0
		for i := len(counts) - 1; i >= 0; i-- {
			tiers[i] = tierRef{firstSeq: w, watermark: w + counts[i], count: counts[i]}
			w += counts[i]
		}
		return tiers
	}
	cases := []struct {
		p     MergePolicy
		tiers []tierRef
		want  bool
	}{
		{MergePolicy{}, nil, false},
		{MergePolicy{}, mk(10), false},
		{MergePolicy{MaxTiers: 2, SizeRatio: 1}, mk(5, 12, 30), true},  // too many tiers
		{MergePolicy{MaxTiers: 8, SizeRatio: 1}, mk(5, 12, 30), false}, // shrinking deltas
		{MergePolicy{MaxTiers: 8, SizeRatio: 4}, mk(5, 12, 30), true},  // 12 < 4*5
		{MergePolicy{MaxTiers: 8, SizeRatio: 4}, mk(5, 20, 80), false}, // exactly geometric
		{MergePolicy{MaxTiers: 1, SizeRatio: 1}, mk(30, 10), true},     // always down to one
		{MergePolicy{MaxTiers: 8, SizeRatio: 1}, mk(30, 10), true},     // inverted sizes
	}
	for i, tc := range cases {
		if got := tc.p.normalized().wantMerge(tc.tiers); got != tc.want {
			t.Errorf("case %d: wantMerge(%v, %d tiers) = %v, want %v",
				i, tc.p, len(tc.tiers), got, tc.want)
		}
	}
	if n := (MergePolicy{}).normalized(); n != DefaultMergePolicy {
		t.Errorf("normalized zero policy = %+v, want %+v", n, DefaultMergePolicy)
	}
}
