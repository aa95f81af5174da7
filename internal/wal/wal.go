// Package wal is the write-ahead delivery log behind a group's durable
// state: an append-only file of length-prefixed records, each record one
// message in the binary wire codec, so a fully restarted process can rebuild
// its application state from disk — the last checkpoint snapshot followed by
// every delivery applied after it.
//
// The log is deliberately simple:
//
//   - records are [u32 length][wire frame of one message]. A snapshot record
//     is a KindWALSnapshot message whose View is the checkpoint's view and
//     whose payload is the application snapshot; a delivery record is a
//     KindCast message carrying the delivered cast's identity, ordering,
//     agreed sequence and payload.
//   - replay takes the LAST snapshot record and the delivery records after
//     it; everything before is garbage awaiting compaction.
//   - compaction is a snapshot rewrite: AppendSnapshot writes a fresh file
//     containing only the snapshot record and renames it over the log, so the
//     log's size is bounded by one checkpoint plus the deliveries since.
//   - fsync is batched: Append marks the log dirty and Sync (driven by the
//     group's recovery tick) flushes once per tick, bounding the loss window
//     to one tick without paying an fsync per delivery.
//   - a torn tail — the crash happened mid-write — is truncated on Open, not
//     fatal: the lost suffix is exactly what the fsync batching already
//     declared losable.
package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/types"
	"repro/internal/wire"
)

// maxRecordBytes bounds one record so a corrupt length prefix cannot force an
// arbitrarily large allocation.
const maxRecordBytes = wire.MaxFrameBytes

// Recovered is the replayable content of an existing log: the most recent
// snapshot record (nil when the log holds none) and the delivery records
// appended after it, in append order.
type Recovered struct {
	Snapshot   *types.Message
	Deliveries []*types.Message
}

// Log is one group's write-ahead delivery log. All methods must be called
// from one goroutine (the owning node's actor goroutine).
type Log struct {
	path  string
	f     *os.File
	buf   []byte
	dirty bool
	size  int64
	// sinceSnap is the bytes appended since the last snapshot record; the
	// owner uses it to decide when a compacting rewrite is worth it.
	sinceSnap int64
}

// Open opens (creating if necessary) the log at path and replays its
// records. Undecodable or torn trailing records are truncated away; only I/O
// failures are errors.
func Open(path string) (*Log, Recovered, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, Recovered{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovered{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	rec, good, sinceSnap, err := replay(f)
	if err != nil {
		_ = f.Close()
		return nil, Recovered{}, fmt.Errorf("wal: replay %s: %w", path, err)
	}
	// Drop the torn/corrupt tail (if any) and position at the end.
	if err := f.Truncate(good); err != nil {
		_ = f.Close()
		return nil, Recovered{}, fmt.Errorf("wal: truncate %s: %w", path, err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, Recovered{}, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	return &Log{path: path, f: f, size: good, sinceSnap: sinceSnap}, rec, nil
}

// replay scans the records of f, returning the recovered content, the offset
// of the last well-formed record boundary, and the bytes since the last
// snapshot record.
func replay(f *os.File) (Recovered, int64, int64, error) {
	var rec Recovered
	var good, snapEnd int64
	r, err := f.Seek(0, io.SeekStart)
	if err != nil || r != 0 {
		return rec, 0, 0, err
	}
	var lenBuf [4]byte
	buf := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(f, lenBuf[:]); err != nil {
			break // clean EOF or torn length prefix: stop at the last boundary
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxRecordBytes {
			break // corrupt length: treat like a torn tail
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(f, buf); err != nil {
			break // torn record body
		}
		fr, err := wire.DecodeFrame(buf)
		if err != nil || len(fr.Msgs) != 1 {
			break // undecodable record: stop; the tail is truncated
		}
		m := fr.Msgs[0]
		good += 4 + int64(n)
		switch m.Kind {
		case types.KindWALSnapshot:
			rec.Snapshot = m
			rec.Deliveries = rec.Deliveries[:0]
			snapEnd = good
		default:
			rec.Deliveries = append(rec.Deliveries, m)
		}
	}
	return rec, good, good - snapEnd, nil
}

// Append writes one record without syncing; Sync flushes the batch.
func (l *Log) Append(m *types.Message) error {
	l.buf = l.buf[:0]
	l.buf = append(l.buf, 0, 0, 0, 0)
	l.buf = wire.AppendFrame(l.buf, []*types.Message{m}, types.ProcessID{}, "")
	binary.BigEndian.PutUint32(l.buf[:4], uint32(len(l.buf)-4))
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("wal: append %s: %w", l.path, err)
	}
	l.size += int64(len(l.buf))
	l.sinceSnap += int64(len(l.buf))
	l.dirty = true
	return nil
}

// AppendSnapshot compacts the log: a fresh file holding only the snapshot
// record replaces the current one atomically (write temp + rename), so every
// record before the checkpoint is reclaimed.
func (l *Log) AppendSnapshot(view types.ViewID, data []byte) error {
	tmp := l.path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	m := &types.Message{Kind: types.KindWALSnapshot, View: view, Payload: data}
	buf := append(make([]byte, 0, len(data)+64), 0, 0, 0, 0)
	buf = wire.AppendFrame(buf, []*types.Message{m}, types.ProcessID{}, "")
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	if _, err := tf.Write(buf); err != nil {
		_ = tf.Close()
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	if err := tf.Sync(); err != nil {
		_ = tf.Close()
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	nf, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen %s: %w", l.path, err)
	}
	_ = l.f.Close()
	l.f = nf
	l.size = int64(len(buf))
	l.sinceSnap = 0
	l.dirty = false
	return nil
}

// Reset discards the log's content: a joining member's previous-incarnation
// records are superseded by the state transfer about to arrive.
func (l *Log) Reset() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset %s: %w", l.path, err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: reset %s: %w", l.path, err)
	}
	l.size, l.sinceSnap, l.dirty = 0, 0, false
	return nil
}

// Sync flushes pending appends to stable storage; a no-op when clean.
func (l *Log) Sync() error {
	if !l.dirty {
		return nil
	}
	l.dirty = false
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync %s: %w", l.path, err)
	}
	return nil
}

// SinceSnapshot returns the bytes appended since the last snapshot record —
// the owner's compaction trigger.
func (l *Log) SinceSnapshot() int64 { return l.sinceSnap }

// Size returns the log's current size in bytes.
func (l *Log) Size() int64 { return l.size }

// Close syncs and closes the log file.
func (l *Log) Close() error {
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
