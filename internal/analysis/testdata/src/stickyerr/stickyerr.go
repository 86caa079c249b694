package stickyerr

type wal struct {
	broken error
	data   []int
}

// writeLocked is the committing function; the checks live in its callers.
func (l *wal) writeLocked(v int) {
	l.data = append(l.data, v)
}

// goodWrite checks the sticky field first.
func (l *wal) goodWrite(v int) error {
	if l.broken != nil {
		return l.broken
	}
	l.writeLocked(v)
	return nil
}

func (l *wal) badWrite(v int) {
	l.writeLocked(v) // want "without first checking a sticky error"
}

// begin reads the sticky field, so calling it counts as a check.
func (l *wal) begin() error {
	return l.broken
}

// goodIndirect checks through begin, the way Append does.
func (l *wal) goodIndirect(v int) error {
	if err := l.begin(); err != nil {
		return err
	}
	l.writeLocked(v)
	return nil
}

func (l *wal) badLate(v int) error {
	l.writeLocked(v) // want "without first checking a sticky error"
	return l.broken
}
