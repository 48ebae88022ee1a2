package pktbuf

import (
	"io"

	"repro/internal/core"
)

// Snapshot-related sentinels, matched with errors.Is.
var (
	// ErrSnapshot reports a snapshot rejected by Restore: truncated,
	// internally inconsistent, or taken from a buffer with a different
	// configuration than the one passed to Restore.
	ErrSnapshot = core.ErrSnapshot
	// ErrSnapshotVersion reports a snapshot whose layout version this
	// build does not read.
	ErrSnapshotVersion = core.ErrSnapshotVersion
)

// Snapshot serializes the buffer's complete state to w as a versioned,
// line-oriented text stream. Restore reconstructs a buffer that is
// bit-identical to this one: it produces the same deliveries, the same
// statistics and the same slot clock for any subsequent stimulus as
// the original would have, so a crash between a Snapshot and the next
// arrival loses nothing.
//
// Snapshot must not run concurrently with Tick or TickBatch; take it
// from the goroutine that drives the buffer (the serve package's
// checkpointing does exactly that at batch boundaries).
func (b *Buffer) Snapshot(w io.Writer) error { return b.inner.Snapshot(w) }

// Restore reconstructs a buffer from a stream written by Snapshot.
// cfg must be the configuration the snapshotted buffer was built with;
// a mismatch returns an error matching ErrSnapshot rather than a
// subtly wrong buffer, as does a truncated, malformed or internally
// inconsistent stream, and an unreadable layout version returns one
// matching ErrSnapshotVersion.
func Restore(r io.Reader, cfg Config) (*Buffer, error) {
	cc, err := coreConfig(cfg)
	if err != nil {
		return nil, err
	}
	inner, err := core.RestoreBuffer(r, cc)
	if err != nil {
		return nil, err
	}
	return &Buffer{inner: inner, cfg: cfg}, nil
}
