package provlog_test

import (
	"context"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/bugdoc"
	"repro/internal/pipeline"
	"repro/internal/provenance"
	"repro/internal/provlog"
)

// The fixtures under testdata are state directories an older version
// checkpointed. "legacy-v01-base" is a polygamy DDT session compacted into
// a v01 base, ckpt-0000000000000110.ckpt, with its space.json;
// "legacy-v02-delta" holds the files a second compaction changed — the
// MANIFEST, a v02 delta tier and the active segment — and shares the base
// fixture's space.

// copyFixture copies the regular files of testdata/name into a fresh
// directory.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range listDir(t, filepath.Join("testdata", name)) {
		copyFile(t, filepath.Join("testdata", name, f), filepath.Join(dir, f))
	}
	return dir
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// listDir returns the sorted names of dir's entries.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	slices.Sort(names)
	return names
}

// dirContents maps each file of dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range listDir(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(data)
	}
	return out
}

// fixtureSpace is the space every fixture was recorded over.
func fixtureSpace(t *testing.T) *pipeline.Space {
	t.Helper()
	s, err := provlog.ReadSpace(filepath.Join("testdata", "legacy-v01-base"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// instanceAt returns the x-th instance of s's domains, counted in mixed
// radix with the first parameter varying fastest.
func instanceAt(t *testing.T, s *pipeline.Space, x int) pipeline.Instance {
	t.Helper()
	vals := make([]pipeline.Value, s.Len())
	for i := range vals {
		dom := s.At(i).Domain
		vals[i] = dom[x%len(dom)]
		x /= len(dom)
	}
	in, err := pipeline.NewInstance(s, vals)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// addRecords adds the instances [from, to) of s's domains to st, every
// third one failing.
func addRecords(t *testing.T, st *provenance.Store, from, to int) {
	t.Helper()
	for x := from; x < to; x++ {
		out := pipeline.Succeed
		if x%3 == 0 {
			out = pipeline.Fail
		}
		if err := st.Add(instanceAt(t, st.Space(), x), out, "legacy-test"); err != nil {
			t.Fatal(err)
		}
	}
}

// walOnlyDir records n instances over the fixtures' space into a fresh
// directory through the WAL alone, and returns the directory and the
// records in execution order.
func walOnlyDir(t *testing.T, n int) (string, []provenance.Record) {
	t.Helper()
	dir := t.TempDir()
	l, st, err := provlog.Open(dir, fixtureSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	addRecords(t, st, 0, n)
	want := st.Records()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, want
}

// assertRecords fails unless got holds want's records in order.
func assertRecords(t *testing.T, got, want []provenance.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("store holds %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Instance.Key() != want[i].Instance.Key() ||
			got[i].Outcome != want[i].Outcome || got[i].Source != want[i].Source {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// assertOpensToWAL opens dir, which holds want as WAL plus debris, and
// requires the store to hold want, a further record to append, and the
// debris to stay byte for byte as it was.
func assertOpensToWAL(t *testing.T, dir string, want []provenance.Record) {
	t.Helper()
	before := dirContents(t, dir)
	l, st, err := provlog.Open(dir, fixtureSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	assertRecords(t, st.Records(), want)
	addRecords(t, st, len(want), len(want)+1)
	want = st.Records()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := provlog.Replay(dir, fixtureSpace(t))
	if err != nil {
		t.Fatal(err)
	}
	assertRecords(t, got.Records(), want)
	after := dirContents(t, dir)
	for name, data := range before {
		if !strings.HasPrefix(name, "wal") && after[name] != data {
			t.Fatalf("opening the directory changed %s", name)
		}
	}
}

// assertRefused requires Open and Replay to refuse dir with an error
// naming the last commit that reads checkpoints, and to leave it byte for
// byte as it was.
func assertRefused(t *testing.T, dir string) {
	t.Helper()
	before := dirContents(t, dir)
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "2b2639a") {
			t.Fatalf("%s = %v, want a refusal naming commit 2b2639a", what, err)
		}
	}
	l, _, err := provlog.Open(dir, fixtureSpace(t))
	if err == nil {
		l.Close()
	}
	refused("Open", err)
	_, err = provlog.Replay(dir, fixtureSpace(t))
	refused("Replay", err)
	if after := dirContents(t, dir); !maps.Equal(after, before) {
		t.Fatalf("refusal changed the directory: it held %d files and holds %d", len(before), len(after))
	}
}

// TestLegacyStateDirs pins the rule for directories an older version
// checkpointed: Open, Replay and ResumeSession refuse a directory holding
// a MANIFEST with an error naming the last commit that reads one, and
// leave it byte for byte as it was. Tier and checkpoint files without a
// MANIFEST are debris: a WAL-only directory holding them opens to its WAL.
func TestLegacyStateDirs(t *testing.T) {
	for _, name := range []string{"legacy-v01-base", "legacy-v02-delta"} {
		t.Run(name, func(t *testing.T) {
			dir := copyFixture(t, name)
			before := dirContents(t, dir)
			assertRefused(t, dir)
			if _, ok := before["space.json"]; ok {
				oracle := bugdoc.OracleFunc(func(context.Context, pipeline.Instance) (pipeline.Outcome, error) {
					return pipeline.Succeed, nil
				})
				sess, err := bugdoc.ResumeSession(dir, oracle)
				if err == nil {
					sess.Close()
				}
				if err == nil || !strings.Contains(err.Error(), "2b2639a") {
					t.Fatalf("ResumeSession = %v, want a refusal naming commit 2b2639a", err)
				}
			}
			if after := dirContents(t, dir); !maps.Equal(after, before) {
				t.Fatalf("refusal changed the directory: it held %d files and holds %d", len(before), len(after))
			}
		})
	}

	t.Run("stray-tier", func(t *testing.T) {
		dir, want := walOnlyDir(t, 20)
		base := filepath.Join("testdata", "legacy-v01-base")
		copyFile(t, filepath.Join(base, legacyCkpt), filepath.Join(dir, legacyCkpt))
		copyFile(t, filepath.Join("testdata", "legacy-v02-delta", legacyTier), filepath.Join(dir, legacyTier))
		copyFile(t, filepath.Join("testdata", "legacy-v02-delta", legacyTier), filepath.Join(dir, legacyTier+".tmp123"))
		assertOpensToWAL(t, dir, want)
	})
}

// The fixtures' checkpoint files: the v01 base and the v02 delta tier.
const (
	legacyCkpt = "ckpt-0000000000000110.ckpt"
	legacyTier = "tier-0000000000000110-0000000000000149.tier"
)

// TestCheckpointCorruptFallsBack puts an older version's checkpoint file,
// damaged, into a WAL-only directory. No MANIFEST names it, so it is
// debris: Open ignores it however broken it is and rebuilds the store
// from the segments alone. With the first segment collected, nothing can
// rebuild the history, and Open and Replay fail rather than resurrect a
// partial one.
func TestCheckpointCorruptFallsBack(t *testing.T) {
	damaged := func(t *testing.T, damage func([]byte) []byte) string {
		dir, want := walOnlyDir(t, 20)
		data, err := os.ReadFile(filepath.Join("testdata", "legacy-v01-base", legacyCkpt))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, legacyCkpt), damage(data), 0o644); err != nil {
			t.Fatal(err)
		}
		assertOpensToWAL(t, dir, want)
		return dir
	}
	bitflip := func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b }

	t.Run("bitflip", func(t *testing.T) { damaged(t, bitflip) })
	t.Run("truncated", func(t *testing.T) {
		damaged(t, func(b []byte) []byte { return b[:len(b)/2] })
	})
	t.Run("collected", func(t *testing.T) {
		dir := damaged(t, bitflip)
		if err := os.Rename(filepath.Join(dir, "wal-000000.seg"), filepath.Join(dir, "wal-000001.seg")); err != nil {
			t.Fatal(err)
		}
		const want = "segments before it are missing"
		l, st, err := provlog.Open(dir, fixtureSpace(t))
		if err == nil {
			l.Close()
			t.Fatalf("Open with the first segment collected returned %d records", st.Len())
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Open = %v, want an error containing %q", err, want)
		}
		if _, err := provlog.Replay(dir, fixtureSpace(t)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Replay = %v, want an error containing %q", err, want)
		}
	})
}

// TestManifestLossFallback deletes, and separately corrupts, the MANIFEST
// of an older version's checkpointed directory. Deleted, it leaves the
// tier files it named as debris: over a WAL still complete from its first
// segment, Open replays the WAL and keeps appending; over the base
// fixture, whose WAL prefix was collected, Open and Replay fail naming
// the missing segments and never return a partial store. A corrupt
// MANIFEST is still a MANIFEST: the directory is refused and left as it
// was.
func TestManifestLossFallback(t *testing.T) {
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
				// The shape a crash between an older version's MANIFEST
				// publish and its segment collection left: the tiers and
				// their MANIFEST over a WAL complete from segment 0.
				dir, want := walOnlyDir(t, 30)
				copyFile(t, filepath.Join("testdata", "legacy-v01-base", legacyCkpt), filepath.Join(dir, legacyCkpt))
				for _, f := range []string{"MANIFEST", legacyTier} {
					copyFile(t, filepath.Join("testdata", "legacy-v02-delta", f), filepath.Join(dir, f))
				}
				lose[how](t, filepath.Join(dir, "MANIFEST"))
				if how == "corrupt" {
					assertRefused(t, dir)
					return
				}
				assertOpensToWAL(t, dir, want)
			})
			t.Run("prefix-collected", func(t *testing.T) {
				dir := copyFixture(t, "legacy-v01-base")
				lose[how](t, filepath.Join(dir, "MANIFEST"))
				if how == "corrupt" {
					assertRefused(t, dir)
					return
				}
				const want = "log starts at segment 1: the segments before it are missing"
				l, st, err := provlog.Open(dir, fixtureSpace(t))
				if err == nil {
					l.Close()
					t.Fatalf("Open without a MANIFEST over a collected WAL returned %d records", st.Len())
				}
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("Open = %v, want an error containing %q", err, want)
				}
				if _, err := provlog.Replay(dir, fixtureSpace(t)); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("Replay = %v, want an error containing %q", err, want)
				}
			})
		})
	}
}

// TestCompactionCrashTorture rebuilds, over a complete WAL, the directory
// an older version's compaction left when killed at each of its stages,
// and opens it. Killed once the tier's temp file was durable
// ("tmp-written") or renamed into place ("renamed"), the compaction had
// published no MANIFEST, so its file is debris: Open replays the WAL to
// the full history, keeps accepting appends and leaves the debris alone.
// Killed while collecting segments ("gc"), it had published its MANIFEST,
// so part of the history may live only in the tiers: Open and Replay
// refuse the directory and change nothing.
func TestCompactionCrashTorture(t *testing.T) {
	src := filepath.Join("testdata", "legacy-v02-delta")
	for _, stage := range []string{"tmp-written", "renamed", "gc"} {
		t.Run(stage, func(t *testing.T) {
			dir, want := walOnlyDir(t, 30)
			switch stage {
			case "tmp-written":
				copyFile(t, filepath.Join(src, legacyTier), filepath.Join(dir, legacyTier+".tmp2718"))
			case "renamed":
				copyFile(t, filepath.Join(src, legacyTier), filepath.Join(dir, legacyTier))
			case "gc":
				copyFile(t, filepath.Join(src, legacyTier), filepath.Join(dir, legacyTier))
				copyFile(t, filepath.Join(src, "MANIFEST"), filepath.Join(dir, "MANIFEST"))
				assertRefused(t, dir)
				return
			}
			assertOpensToWAL(t, dir, want)
		})
	}
}
