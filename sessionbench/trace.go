package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End
// are nanoseconds since the tracer's epoch; Parent is 0 for a root span.
// Every span of one debugging session, replays included, carries that
// session's id.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Session int    `json:"session"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a traced run's spans in memory until the run ends. Spans
// open only around the public calls the benchmark itself makes; nothing is
// traced inside the program. A nil *tracer records nothing, which is how
// untraced sessions run.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	sessions int // session ids issued
	session  int // the id new spans carry
	root     int // the open session span, 0 between sessions
	phase    int // the open span oracle calls nest under
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) openLocked(name string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Session: t.session,
		Name: name, Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// beginSession starts a new session id and opens its root span.
func (t *tracer) beginSession() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sessions++
	t.session = t.sessions
	t.root = t.openLocked("session", 0)
	t.phase = t.root
}

// current is the id of the session begun last.
func (t *tracer) current() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sessions
}

// attach makes the spans opened from now on, outside any session, carry
// session id: a session's replays run after it has ended.
func (t *tracer) attach(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.session = id
}

// endSession closes the session's root span.
func (t *tracer) endSession() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[t.root-1].End = int64(time.Since(t.epoch))
	t.root, t.phase = 0, 0
}

// enter opens a span under the session root and makes it the parent of
// oracle calls until it ends.
func (t *tracer) enter(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.phase = t.openLocked(name, t.root)
	return t.phase
}

// call opens a span under the current phase. Oracle runs use it, from
// whichever worker goroutine runs them.
func (t *tracer) call(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.openLocked(name, t.phase)
}

// end closes a span opened by enter or call.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.epoch))
	if id == t.phase {
		t.phase = t.root
	}
}

// selfTime is s's duration minus the part of it that the union of its
// children's intervals covers. Children may overlap one another, as
// concurrent oracle calls do, and are clipped to s.
func selfTime(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, lo, hi int64
	for i, x := range iv {
		switch {
		case i == 0 || x[0] > hi:
			covered += hi - lo
			lo, hi = x[0], x[1]
		case x[1] > hi:
			hi = x[1]
		}
	}
	covered += hi - lo
	return s.dur() - covered
}

// layerTotal sums the spans of one name.
type layerTotal struct {
	n           int
	total, self int64 // nanoseconds
	durs        []float64
}

// totals groups the closed spans by name.
func (t *tracer) totals() map[string]*layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTotal)
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.n++
		lt.total += s.dur()
		lt.self += selfTime(s, children[s.ID])
		lt.durs = append(lt.durs, float64(s.dur())/1e6)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
