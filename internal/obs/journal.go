package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Journal writes structured events as JSON Lines: one self-contained JSON
// object per line, in write order. It is safe for concurrent use, and a
// nil *Journal discards every event, so callers can thread a journal
// unconditionally and only pay when one is attached.
//
// Encoding errors are sticky: the first error is retained (see Err) and
// subsequent writes become no-ops, so a full disk cannot corrupt a run.
type Journal struct {
	mu     sync.Mutex
	w      io.Writer
	enc    *json.Encoder
	closer io.Closer
	err    error
}

// NewJournal wraps w as a JSONL event sink.
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: w, enc: json.NewEncoder(w)}
}

// OpenJournal creates (or truncates) a file-backed journal at path.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: open journal: %w", err)
	}
	j := NewJournal(f)
	j.closer = f
	return j, nil
}

// Write appends one event as a JSON line. Events should be structs with
// json tags and a leading "kind" discriminator field so consumers can
// demultiplex lines without schema knowledge.
func (j *Journal) Write(event any) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if err := j.enc.Encode(event); err != nil {
		j.err = fmt.Errorf("obs: journal write: %w", err)
	}
}

// Err returns the first write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close releases a file-backed journal and returns any sticky write error.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closer != nil {
		if cerr := j.closer.Close(); cerr != nil && j.err == nil {
			j.err = cerr
		}
		j.closer = nil
	}
	return j.err
}
