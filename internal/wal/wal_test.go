package wal

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/types"
)

func delivery(seq uint64, payload string) *types.Message {
	return &types.Message{
		Kind:     types.KindCast,
		View:     3,
		ID:       types.MsgID{Sender: types.ProcessID{Site: 1, Incarnation: 1}, Seq: seq},
		Ordering: types.Total,
		Seq:      seq,
		Payload:  []byte(payload),
	}
}

func mustOpen(t *testing.T, path string) (*Log, Recovered) {
	t.Helper()
	l, rec, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	l, rec := mustOpen(t, path)
	if rec.Snapshot != nil || len(rec.Deliveries) != 0 {
		t.Fatalf("fresh log not empty: %+v", rec)
	}
	for i := 1; i <= 5; i++ {
		if err := l.Append(delivery(uint64(i), "op")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, path)
	defer l2.Close()
	if rec.Snapshot != nil {
		t.Fatal("unexpected snapshot record")
	}
	if len(rec.Deliveries) != 5 {
		t.Fatalf("replayed %d deliveries, want 5", len(rec.Deliveries))
	}
	for i, m := range rec.Deliveries {
		if m.Seq != uint64(i+1) || string(m.Payload) != "op" || m.View != 3 {
			t.Fatalf("delivery %d corrupted: %+v", i, m)
		}
	}
}

// TestSnapshotCompaction: a snapshot record supersedes everything before it,
// and the rewrite reclaims the file space.
func TestSnapshotCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	l, _ := mustOpen(t, path)
	for i := 1; i <= 100; i++ {
		if err := l.Append(delivery(uint64(i), "pre-snapshot-delivery")); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Size()
	if err := l.AppendSnapshot(7, []byte("checkpoint")); err != nil {
		t.Fatal(err)
	}
	if l.Size() >= before {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before, l.Size())
	}
	if l.SinceSnapshot() != 0 {
		t.Fatalf("SinceSnapshot = %d after compaction", l.SinceSnapshot())
	}
	if err := l.Append(delivery(101, "post")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, path)
	defer l2.Close()
	if rec.Snapshot == nil || string(rec.Snapshot.Payload) != "checkpoint" || rec.Snapshot.View != 7 {
		t.Fatalf("snapshot record wrong: %+v", rec.Snapshot)
	}
	if len(rec.Deliveries) != 1 || string(rec.Deliveries[0].Payload) != "post" {
		t.Fatalf("post-snapshot deliveries wrong: %+v", rec.Deliveries)
	}
}

// TestTornTailTruncated: a crash mid-write leaves a partial final record; Open
// must recover everything before it and truncate the tail rather than fail.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	l, _ := mustOpen(t, path)
	for i := 1; i <= 3; i++ {
		if err := l.Append(delivery(uint64(i), "whole")); err != nil {
			t.Fatal(err)
		}
	}
	goodSize := l.Size()
	if err := l.Append(delivery(4, "torn")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record: keep its length prefix and half its body.
	tornSize := goodSize + (l.Size()-goodSize)/2
	if err := os.Truncate(path, tornSize); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, path)
	if len(rec.Deliveries) != 3 {
		t.Fatalf("replayed %d deliveries, want the 3 whole ones", len(rec.Deliveries))
	}
	if l2.Size() != goodSize {
		t.Fatalf("torn tail not truncated: size %d, want %d", l2.Size(), goodSize)
	}
	// The log must be appendable after truncation.
	if err := l2.Append(delivery(5, "after")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec = mustOpen(t, path)
	if len(rec.Deliveries) != 4 || string(rec.Deliveries[3].Payload) != "after" {
		t.Fatalf("append after torn-tail recovery lost: %+v", rec.Deliveries)
	}
}

// TestCorruptLengthPrefix: garbage in the length field must read as a torn
// tail, not an error or a huge allocation.
func TestCorruptLengthPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	l, _ := mustOpen(t, path)
	if err := l.Append(delivery(1, "ok")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	l2, rec := mustOpen(t, path)
	defer l2.Close()
	if len(rec.Deliveries) != 1 || string(rec.Deliveries[0].Payload) != "ok" {
		t.Fatalf("good prefix lost behind corrupt length: %+v", rec.Deliveries)
	}
}

func TestResetDiscardsContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	l, _ := mustOpen(t, path)
	if err := l.Append(delivery(1, "stale")); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("size %d after reset", l.Size())
	}
	if err := l.Append(delivery(2, "fresh")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, path)
	if len(rec.Deliveries) != 1 || string(rec.Deliveries[0].Payload) != "fresh" {
		t.Fatalf("reset did not discard stale records: %+v", rec.Deliveries)
	}
}

// walGolden is a log written by an earlier build, while the snapshot tag
// still doubled as the one-shot state-transfer kind: one snapshot record
// (view 7, payload "snap") followed by delivery(1, "a") and delivery(2, "b").
// Each record's kind is the big-endian u16 after its length prefix and
// three-byte frame header — 0x000d (13) for the snapshot, 0x0003 for the
// casts — so the test pins both on-disk values.
var walGolden = []byte{
	0x00, 0x00, 0x00, 0x37, 0x01, 0x00, 0x01, 0x00, 0x0d, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x04, 0x73, 0x6e, 0x61, 0x70, 0x00, 0x00, 0x00, 0x34, 0x01,
	0x00, 0x01, 0x00, 0x03, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x01, 0x03, 0x00, 0x00, 0x03, 0x01, 0x00,
	0x00, 0x01, 0x61, 0x00, 0x00, 0x00, 0x34, 0x01, 0x00, 0x01, 0x00, 0x03, 0x10, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
	0x00, 0x02, 0x03, 0x00, 0x00, 0x03, 0x02, 0x00, 0x00, 0x01, 0x62,
}

// TestReplaysGoldenLog: a log file from an earlier build still replays to
// the same snapshot and deliveries, so existing WAL directories survive
// upgrades.
func TestReplaysGoldenLog(t *testing.T) {
	if types.KindCast != 3 || types.KindWALSnapshot != 13 {
		t.Fatalf("on-disk kinds moved: KindCast=%d KindWALSnapshot=%d, want 3 and 13",
			types.KindCast, types.KindWALSnapshot)
	}
	path := filepath.Join(t.TempDir(), "g.wal")
	if err := os.WriteFile(path, walGolden, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := mustOpen(t, path)
	defer l.Close()
	if rec.Snapshot == nil || rec.Snapshot.View != 7 || string(rec.Snapshot.Payload) != "snap" {
		t.Fatalf("snapshot = %+v, want view 7 payload \"snap\"", rec.Snapshot)
	}
	want := []*types.Message{delivery(1, "a"), delivery(2, "b")}
	if len(rec.Deliveries) != len(want) {
		t.Fatalf("replayed %d deliveries, want %d", len(rec.Deliveries), len(want))
	}
	for i, m := range rec.Deliveries {
		w := want[i]
		if m.Kind != w.Kind || m.ID != w.ID || m.Seq != w.Seq || m.View != w.View ||
			m.Ordering != w.Ordering || string(m.Payload) != string(w.Payload) {
			t.Errorf("delivery %d = %+v, want %+v", i, m, w)
		}
	}
	if l.Size() != int64(len(walGolden)) {
		t.Errorf("log size %d after open, want %d (nothing truncated)", l.Size(), len(walGolden))
	}
}
