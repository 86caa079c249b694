package telemetry

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Journal is a structured session event log: one JSON object per line,
// each carrying a nanosecond timestamp ("ts"), an event type ("ev"), and
// the event's fields. Lines are written atomically under a mutex, so a
// journal shared by the executor's workers, the WAL flush leader, and the
// driver interleaves whole events, never partial ones. A nil *Journal is a
// valid no-op target, which is the disabled path; emitting to an enabled
// journal allocates (it formats JSON), so journals belong on span-level
// events — oracle trials, batch dispatches, flushes — not
// per-record hot paths.
type Journal struct {
	mu  sync.Mutex
	w   io.Writer
	c   io.Closer
	buf []byte
	err error
}

// NewJournal writes events to w. The caller keeps ownership of w; Close
// does not close it.
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: w}
}

// OpenJournal creates (or truncates) the JSON-lines journal file at path.
// Close closes the file.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open journal: %w", err)
	}
	return &Journal{w: f, c: f}, nil
}

// Field is one key/value pair of a journal event. Build fields with the
// typed constructors (Str, Int, Uint, Hex, Dur).
type Field struct {
	key string
	str string
	num int64
	// kind selects the JSON rendering: 0 string, 1 int, 2 uint/hex
	// (pre-rendered into str), 3 duration (num nanoseconds).
	kind uint8
}

// Str builds a string field.
func Str(key, v string) Field { return Field{key: key, str: v, kind: 0} }

// Int builds an integer field.
func Int(key string, v int64) Field { return Field{key: key, num: v, kind: 1} }

// Uint builds an unsigned integer field.
func Uint(key string, v uint64) Field {
	return Field{key: key, str: strconv.FormatUint(v, 10), kind: 2}
}

// Hex builds a hexadecimal string field (for instance hashes).
func Hex(key string, v uint64) Field {
	return Field{key: key, str: strconv.FormatUint(v, 16), kind: 0}
}

// Dur builds a duration field, rendered as integer nanoseconds with key
// suffixed "_ns" by convention at the call site.
func Dur(key string, d time.Duration) Field { return Field{key: key, num: int64(d), kind: 3} }

// Emit appends one event line: {"ts":<unixnano>,"ev":"<typ>",...fields}.
// Safe for concurrent use; a nil journal ignores the call. Write errors
// are sticky and reported by Err/Close rather than per event.
func (j *Journal) Emit(typ string, fields ...Field) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	b := j.buf[:0]
	b = append(b, `{"ts":`...)
	b = strconv.AppendInt(b, time.Now().UnixNano(), 10)
	b = append(b, `,"ev":`...)
	b = appendJSONString(b, typ)
	for _, f := range fields {
		b = append(b, ',')
		b = appendJSONString(b, f.key)
		b = append(b, ':')
		switch f.kind {
		case 0:
			b = appendJSONString(b, f.str)
		case 2:
			b = append(b, f.str...)
		default:
			b = strconv.AppendInt(b, f.num, 10)
		}
	}
	b = append(b, '}', '\n')
	j.buf = b
	if _, err := j.w.Write(b); err != nil {
		j.err = err
	}
}

// Err returns the first write error, if any (nil on a nil journal).
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close closes the underlying file when the journal owns one (OpenJournal)
// and returns the first write error encountered. Nil journals close
// cleanly.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.c != nil {
		if err := j.c.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.c = nil
	}
	return j.err
}

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes, and control characters.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for _, r := range s {
		switch {
		case r == '"':
			b = append(b, '\\', '"')
		case r == '\\':
			b = append(b, '\\', '\\')
		case r == '\n':
			b = append(b, '\\', 'n')
		case r == '\t':
			b = append(b, '\\', 't')
		case r == '\r':
			b = append(b, '\\', 'r')
		case r < 0x20:
			b = append(b, fmt.Sprintf(`\u%04x`, r)...)
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}
