package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestJournalNilNoOp(t *testing.T) {
	var j *Journal
	j.Emit("trial_end", Int("n", 1))
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalEmitShape(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Emit("trial_end",
		Hex("inst", 0xdeadbeef),
		Str("outcome", "fail"),
		Int("seq", -3),
		Uint("bytes", 18446744073709551615),
		Dur("dur_ns", 1500*time.Microsecond),
		Str("quote", `a"b\c`+"\n\ttail"),
	)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("invalid JSON line %q: %v", line, err)
	}
	if m["ev"] != "trial_end" {
		t.Fatalf("ev = %v", m["ev"])
	}
	if _, ok := m["ts"].(float64); !ok {
		t.Fatalf("ts missing or not a number: %v", m["ts"])
	}
	if m["inst"] != "deadbeef" {
		t.Fatalf("inst = %v", m["inst"])
	}
	if m["outcome"] != "fail" {
		t.Fatalf("outcome = %v", m["outcome"])
	}
	if m["seq"] != float64(-3) {
		t.Fatalf("seq = %v", m["seq"])
	}
	// The uint64 max overflows float64 exactly to 2^64; json.Number keeps it.
	dec := json.NewDecoder(bytes.NewReader([]byte(line)))
	dec.UseNumber()
	var mn map[string]any
	if err := dec.Decode(&mn); err != nil {
		t.Fatal(err)
	}
	if mn["bytes"].(json.Number).String() != "18446744073709551615" {
		t.Fatalf("bytes = %v", mn["bytes"])
	}
	if m["dur_ns"] != float64(1500000) {
		t.Fatalf("dur_ns = %v", m["dur_ns"])
	}
	if m["quote"] != `a"b\c`+"\n\ttail" {
		t.Fatalf("quote = %v", m["quote"])
	}
}

func TestJournalConcurrentLinesAreAtomic(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				j.Emit("ev", Int("g", int64(g)), Int("i", int64(i)))
			}
		}(g)
	}
	wg.Wait()
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	lines := 0
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d invalid JSON: %v: %q", lines, err, sc.Text())
		}
	}
	if lines != goroutines*perG {
		t.Fatalf("got %d lines, want %d", lines, goroutines*perG)
	}
}

func TestOpenJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Emit("checkpoint", Int("bytes", 1024))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// TryLock fails at once where a later Err would hang.
	if !j.mu.TryLock() {
		t.Fatal("Close left the journal's lock held")
	}
	j.mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(data), &m); err != nil {
		t.Fatalf("invalid JSON in file: %v: %q", err, data)
	}
	if m["ev"] != "checkpoint" || m["bytes"] != float64(1024) {
		t.Fatalf("round trip mismatch: %v", m)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, os.ErrClosed }

func TestJournalStickyError(t *testing.T) {
	j := NewJournal(failWriter{})
	j.Emit("a")
	j.Emit("b")
	if j.Err() == nil {
		t.Fatal("expected sticky write error")
	}
	if err := j.Close(); err == nil {
		t.Fatal("Close should surface the write error")
	}
}
