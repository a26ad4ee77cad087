package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/logobj"
	"repro/internal/wire"
)

// FuzzWALReplay throws arbitrary bytes at the segment reader as the tail of
// an otherwise valid log: replay must never panic, must always recover the
// two good records, and whatever it recovers beyond them must be a frame
// the writer could actually have produced (round-trip property).
func FuzzWALReplay(f *testing.F) {
	good := append(frameF(1, []byte("good-one")), frameF(2, []byte("good-two"))...)
	f.Add([]byte{})
	f.Add(frameF(3, []byte("a third valid record")))
	f.Add(frameF(3, []byte("torn"))[:3])        // torn mid-header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff}) // absurd varint length
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00}) // zero-length body
	corrupt := frameF(4, []byte("checksum-victim"))
	corrupt[len(corrupt)-1] ^= 0x80
	f.Add(corrupt)
	f.Add(batchHeadAccept())

	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, "wal-00000001.seg")
		if err := os.WriteFile(seg, append(append([]byte(nil), good...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenFile(dir, FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var got []Record
		if err := w.Replay(func(r Record) error {
			got = append(got, Record{Kind: r.Kind, Data: append([]byte(nil), r.Data...)})
			return nil
		}); err != nil {
			t.Fatalf("replay returned error on corrupt input: %v", err)
		}
		if len(got) < 2 {
			t.Fatalf("lost the valid prefix: recovered %d records", len(got))
		}
		if got[0].Kind != 1 || !bytes.Equal(got[0].Data, []byte("good-one")) ||
			got[1].Kind != 2 || !bytes.Equal(got[1].Data, []byte("good-two")) {
			t.Fatalf("valid prefix mangled: %+v", got[:2])
		}
		// Anything extra must re-encode to a prefix of the fuzzed tail.
		var reenc []byte
		for _, r := range got[2:] {
			reenc = append(reenc, frameF(r.Kind, r.Data)...)
		}
		if !bytes.HasPrefix(tail, reenc) {
			t.Fatalf("recovered records beyond the valid prefix do not round-trip:\ntail  %x\nreenc %x", tail, reenc)
		}
	})
}

// batchHeadAccept is the frame of a paxos accept record (kind 3: instance,
// ballot, value) whose value is a replog batch of one append of a batch
// head — a KindMsg datum whose I names the last request of its batch. The
// bytes are spelled out with the codecs the writers use, so the seed needs
// neither package.
func batchHeadAccept() []byte {
	var batch wire.Enc
	batch.U64(1) // one op
	batch.I64(1) // opAppend
	logobj.EncodeDatum(&batch, logobj.Datum{Kind: logobj.KindMsg, Msg: 4, I: 9})
	batch.I64(0) // K
	batch.U64(0) // reserved
	var rec wire.Enc
	rec.U8(0)              // instance space
	rec.U64(1<<32 | 1)     // realm: LOG_g1
	rec.I64(3)             // slot
	rec.I64(64)            // ballot
	rec.Bin(batch.Bytes()) // value
	return frameF(3, rec.Bytes())
}

// frameF mirrors File's frame encoding for fuzz corpus construction.
func frameF(kind uint8, data []byte) []byte {
	body := append([]byte{kind}, data...)
	var hdr [binary.MaxVarintLen64 + 4]byte
	k := binary.PutUvarint(hdr[:], uint64(len(body)))
	binary.LittleEndian.PutUint32(hdr[k:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return append(hdr[:k+4], body...)
}

// FuzzMem runs Append, Sync, PowerCycle and Replay in a fuzzed order against
// a model that keeps the durable and the pending records as plain slices.
// Record sizes cover empty records, records larger than a page and sizes
// around the first page's, so records fall on both sides of every page
// boundary.
func FuzzMem(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 3})
	f.Add([]byte{0, 5, 1, 0, 0, 7, 3, 0})                    // replay with an unsynced record
	f.Add([]byte{0, 5, 1, 0, 12, 0, 2, 0, 0, 9, 1, 0, 3, 0}) // a power cycle drops a whole page
	f.Add([]byte{4, 0, 1, 5, 7, 3, 2, 3})
	f.Add([]byte{6, 9, 0, 200, 0, 255, 1, 2, 0, 17, 1, 3})
	f.Add(bytes.Repeat([]byte{0, 250, 8, 90}, 40))

	f.Fuzz(func(t *testing.T, ops []byte) {
		m := NewMem()
		var durable, pending []Record
		appended := 0
		for i := 0; i+1 < len(ops) && appended < 1<<20; i += 2 {
			op, arg := ops[i], int(ops[i+1])
			switch op % 4 {
			case 0:
				size := arg
				switch op / 4 % 4 {
				case 1:
					size = 0
				case 2:
					size = memPageMax>>6 - arg%32 // about the first page's room
				case 3:
					size = memPageMax + arg // larger than any page
				}
				data := make([]byte, size)
				for j := range data {
					data[j] = byte(i + j)
				}
				pending = append(pending, Record{Kind: op, Data: append([]byte(nil), data...)})
				if err := m.Append(Record{Kind: op, Data: data}); err != nil {
					t.Fatal(err)
				}
				for j := range data {
					data[j] = 0xff // Append copied the record
				}
				appended += size
			case 1:
				if err := m.Sync(); err != nil {
					t.Fatal(err)
				}
				durable, pending = append(durable, pending...), nil
			case 2:
				m.PowerCycle()
				pending = nil
			case 3:
				wantRecords(t, collect(t, m), durable)
				if m.Len() != len(durable) {
					t.Fatalf("Len = %d, want %d durable records", m.Len(), len(durable))
				}
			}
		}
		m.PowerCycle()
		wantRecords(t, collect(t, m), durable)
	})
}
