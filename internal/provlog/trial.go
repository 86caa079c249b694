package provlog

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/pipeline"
)

// Trial votes (flaky-oracle sessions) persist as ordinary exec frames
// wearing a reserved repeat-source id: the frame's source string is
// "trial#<index>#<original source>", so the format is fully additive — an
// old reader sees well-formed frames, and the replayer routes any frame
// whose source carries the prefix to the store's vote ledger instead of
// the record log. Trial frames consume no global sequence number: replay
// does not count them against segment-header firstSeq positions, and
// replay loads them idempotently, keyed by instance and trial index. The
// reserved prefix is rejected on record sources, so a record can never be
// mistaken for a vote.
const trialSourcePrefix = "trial#"

// isTrialSource reports whether a source string is a reserved trial
// repeat-source name.
func isTrialSource(s string) bool { return strings.HasPrefix(s, trialSourcePrefix) }

// trialSourceName builds the repeat-source name for one vote.
func trialSourceName(trial int, source string) string {
	return trialSourcePrefix + strconv.Itoa(trial) + "#" + source
}

// parseTrialSource splits a repeat-source name back into the trial index
// and the original source.
func parseTrialSource(s string) (trial int, source string, ok bool) {
	rest, found := strings.CutPrefix(s, trialSourcePrefix)
	if !found {
		return 0, "", false
	}
	num, src, found := strings.Cut(rest, "#")
	if !found {
		return 0, "", false
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0, "", false
	}
	return n, src, true
}

// AppendTrial implements provenance.TrialSink: it durably logs one trial
// vote as an exec frame under the vote's repeat-source name, with one
// write (and one fsync under WithSync), and returns once the vote is
// written. A failed write rolls back exactly as Append's does.
func (l *Log) AppendTrial(in pipeline.Instance, trial int, out pipeline.Outcome, source string) error {
	if in.Space() != l.space {
		return fmt.Errorf("provlog: trial vote belongs to a different space")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.beginLocked(); err != nil {
		return err
	}
	buf, err := l.appendFramesLocked(l.frames[:0], in, out, trialSourceName(trial, source))
	if err != nil {
		l.rollbackLocked()
		return err
	}
	return l.writeLocked(buf, 0)
}
