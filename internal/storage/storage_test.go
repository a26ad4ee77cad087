package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func collect(t *testing.T, w WAL) []Record {
	t.Helper()
	var got []Record
	if err := w.Replay(func(r Record) error {
		got = append(got, Record{Kind: r.Kind, Data: append([]byte(nil), r.Data...)})
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func wantRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d = {%d %x}, want {%d %x}",
				i, got[i].Kind, got[i].Data, want[i].Kind, want[i].Data)
		}
	}
}

func TestMemSyncAndPowerCycle(t *testing.T) {
	m := NewMem()
	a := Record{Kind: 1, Data: []byte("alpha")}
	b := Record{Kind: 2, Data: []byte("beta")}
	if err := m.Append(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	// Unsynced append must not survive the power cycle.
	if err := m.Append(b); err != nil {
		t.Fatal(err)
	}
	m.PowerCycle()
	wantRecords(t, collect(t, m), []Record{a})
	// ... but a synced one must.
	if err := m.Append(b); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	m.PowerCycle()
	wantRecords(t, collect(t, m), []Record{a, b})
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var want []Record
	w, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, collect(t, w), nil)
	for i := 0; i < 100; i++ {
		r := Record{Kind: uint8(i % 7), Data: []byte(fmt.Sprintf("record-%03d", i))}
		want = append(want, r)
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A second incarnation sees everything and appends into a new segment.
	w2, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, collect(t, w2), want)
	if n := w2.RecoveredRecords(); n != int64(len(want)) {
		t.Fatalf("RecoveredRecords = %d, want %d", n, len(want))
	}
	extra := Record{Kind: 9, Data: []byte("post-recovery")}
	want = append(want, extra)
	if err := w2.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	w3, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, collect(t, w3), want)
}

func TestFileSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenFile(dir, FileOptions{SegmentBytes: 128, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 50; i++ {
		r := Record{Kind: 1, Data: []byte(fmt.Sprintf("rotation-record-%03d", i))}
		want = append(want, r)
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 3 {
		t.Fatalf("expected multiple segments after rotation, got %d files", len(ents))
	}
	w2, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, collect(t, w2), want)
}

// writeSegment writes raw bytes as the WAL's first segment.
func writeSegment(t *testing.T, dir string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// frame encodes one record the way File does.
func frame(kind uint8, data []byte) []byte {
	body := append([]byte{kind}, data...)
	var hdr [binary.MaxVarintLen64 + 4]byte
	k := binary.PutUvarint(hdr[:], uint64(len(body)))
	binary.LittleEndian.PutUint32(hdr[k:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return append(hdr[:k+4], body...)
}

func TestFileTornTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	a, b := Record{Kind: 1, Data: []byte("first")}, Record{Kind: 2, Data: []byte("second")}
	raw := append(frame(a.Kind, a.Data), frame(b.Kind, b.Data)...)
	for cut := 0; cut <= len(raw); cut++ {
		sub := t.TempDir()
		writeSegment(t, sub, raw[:cut])
		w, err := OpenFile(sub, FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, w)
		var want []Record
		if cut >= len(frame(a.Kind, a.Data)) {
			want = append(want, a)
		}
		if cut == len(raw) {
			want = append(want, b)
		}
		wantRecords(t, got, want)
	}
	_ = dir
}

func TestFileCorruptFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	a, b, c := Record{Kind: 1, Data: []byte("aaaa")}, Record{Kind: 2, Data: []byte("bbbb")}, Record{Kind: 3, Data: []byte("cccc")}
	raw := append(frame(a.Kind, a.Data), frame(b.Kind, b.Data)...)
	flip := len(raw) - 2 // inside b's payload
	raw[flip] ^= 0x40
	raw = append(raw, frame(c.Kind, c.Data)...)
	writeSegment(t, dir, raw)
	w, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// b fails its checksum; c sits after the corruption and must NOT be
	// replayed even though its own frame is intact.
	wantRecords(t, collect(t, w), []Record{a})
}

func TestFileCorruptionInEarlierSegmentMasksLater(t *testing.T) {
	dir := t.TempDir()
	a := Record{Kind: 1, Data: []byte("early")}
	raw := frame(a.Kind, a.Data)
	raw[len(raw)-1] ^= 0x01
	writeSegment(t, dir, raw)
	if err := os.WriteFile(filepath.Join(dir, "wal-00000002.seg"),
		frame(2, []byte("later")), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, collect(t, w), nil)
}

// TestAppendCopiesData: Append copies a record's data (the WAL contract), so
// a caller may encode its next record into the same buffer — what paxos does
// with its record scratch buffers. Overwriting the caller's slice after
// Append, before and after Sync, leaves the replayed bytes untouched.
func TestAppendCopiesData(t *testing.T) {
	open := map[string]func(t *testing.T) (WAL, func() WAL){
		"mem": func(t *testing.T) (WAL, func() WAL) {
			m := NewMem()
			return m, func() WAL { m.PowerCycle(); return m }
		},
		"file": func(t *testing.T) (WAL, func() WAL) {
			dir := t.TempDir()
			w, err := OpenFile(dir, FileOptions{NoFsync: true})
			if err != nil {
				t.Fatal(err)
			}
			return w, func() WAL {
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				w2, err := OpenFile(dir, FileOptions{NoFsync: true})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { w2.Close() })
				return w2
			}
		},
	}
	for name, mk := range open {
		t.Run(name, func(t *testing.T) {
			w, reopen := mk(t)
			wantRecords(t, collect(t, w), nil)
			buf := make([]byte, 0, 64)
			var want []Record
			for i := 0; i < 8; i++ {
				buf = append(buf[:0], fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{'x'}, i*5))...)
				want = append(want, Record{Kind: uint8(i), Data: append([]byte(nil), buf...)})
				if err := w.Append(Record{Kind: uint8(i), Data: buf}); err != nil {
					t.Fatal(err)
				}
				for j := range buf {
					buf[j] = '!'
				}
				if i%3 == 2 {
					if err := w.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			for j := range buf[:cap(buf)] {
				buf[:cap(buf)][j] = '?'
			}
			wantRecords(t, collect(t, reopen()), want)
		})
	}
}

// TestMemReplayWhileAppending replays the durable prefix while another
// goroutine appends and syncs: every replay is a prefix of the appended
// sequence, at least as long as what was durable when it began. Run it
// under -race: Replay reads the pages below the watermark without the lock.
func TestMemReplayWhileAppending(t *testing.T) {
	rec := func(i int) Record {
		return Record{Kind: uint8(i), Data: bytes.Repeat([]byte{byte(i)}, i%97)}
	}
	m := NewMem()
	const initial, total = 50, 3000
	for i := 0; i < initial; i++ {
		if err := m.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := initial; i < total; i++ {
			if err := m.Append(rec(i)); err != nil {
				t.Error(err)
				return
			}
			if i%7 == 0 {
				if err := m.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		got := collect(t, m)
		if len(got) < initial {
			t.Fatalf("replayed %d records, %d were durable before", len(got), initial)
		}
		for i, r := range got {
			if want := rec(i); r.Kind != want.Kind || !bytes.Equal(r.Data, want.Data) {
				t.Fatalf("record %d = {%d %x}, want {%d %x}", i, r.Kind, r.Data, want.Kind, want.Data)
			}
		}
	}
}

// TestMemAppendAllocs: Append copies into the open page and Sync moves a
// watermark, so a record costs no allocation but its share of a new page.
func TestMemAppendAllocs(t *testing.T) {
	m := NewMem()
	rec := Record{Kind: 3, Data: bytes.Repeat([]byte{'r'}, 48)}
	avg := testing.AllocsPerRun(5000, func() {
		if err := m.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
	})
	if avg >= 0.05 {
		t.Fatalf("Append+Sync: %.3f allocs per record, want < 0.05", avg)
	}
}
