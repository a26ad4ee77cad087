package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// MaxRecord bounds a single WAL record's encoded body (kind + payload),
// mirroring wire.MaxFrame: a length prefix above it in a segment is treated
// as corruption, not an allocation request.
const MaxRecord = 1 << 20

// crcTable is the Castagnoli polynomial — hardware-accelerated on the
// platforms a daemon runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FileOptions parameterise a file-backed WAL.
type FileOptions struct {
	// SegmentBytes rotates to a fresh segment file once the current one
	// exceeds this size. Default 4 MiB.
	SegmentBytes int64
	// NoFsync skips the fsync in Sync: records still reach the OS on every
	// Sync (surviving a process kill) but not necessarily the disk
	// (a machine crash can lose the tail). The -fsync=none deployment knob.
	NoFsync bool
	// Counters receives append/sync/recovery accounting (nil: a private
	// block nobody reads).
	Counters *obs.WALCounters
}

// File is the file-backed WAL: a directory of checksummed append-only
// segment files.
//
// On-disk frame, per record:
//
//	uvarint  body length        (≤ MaxRecord)
//	u32 LE   crc32-C of body
//	body     kind byte + payload
//
// Recovery replays segments in order and stops at the first frame that is
// torn (short read at EOF), oversized, or fails its checksum — the longest
// valid prefix. Writes after recovery go to a brand-new segment, so a torn
// tail is never appended after; the garbage bytes stay where they fell and
// are ignored by every future replay.
type File struct {
	dir  string
	opts FileOptions

	mu        sync.Mutex
	segs      []string // existing segments at Open, replay order
	nextSeg   int      // index of the first segment this incarnation writes
	f         *os.File
	w         *bufio.Writer
	written   int64 // bytes in the current segment
	dirty     bool  // bytes flushed to the OS since the last fsync
	closed    bool
	recovered int64 // records handed out by Replay
}

// OpenFile opens (creating if needed) a file-backed WAL rooted at dir.
func OpenFile(dir string, opts FileOptions) (*File, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.Counters == nil {
		opts.Counters = new(obs.WALCounters)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	fw := &File{dir: dir, opts: opts, nextSeg: 1}
	for _, e := range ents {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.seg", &idx); err == nil {
			fw.segs = append(fw.segs, filepath.Join(dir, e.Name()))
			if idx >= fw.nextSeg {
				fw.nextSeg = idx + 1
			}
		}
	}
	sort.Strings(fw.segs)
	return fw, nil
}

// Replay scans the segments present at Open in order, stopping at the first
// invalid frame.
func (fw *File) Replay(fn func(Record) error) error {
	start := time.Now()
	var n int64
	for _, path := range fw.segs {
		more, cnt, err := replaySegment(path, fn)
		n += cnt
		if err != nil {
			return err
		}
		if !more {
			break // torn or corrupt frame: everything after is untrusted
		}
	}
	fw.mu.Lock()
	fw.recovered = n
	fw.mu.Unlock()
	obs.Add(&fw.opts.Counters.RecoveredRecords, n)
	obs.Add(&fw.opts.Counters.RecoveryNanos, int64(time.Since(start)))
	return nil
}

// replaySegment feeds one segment's valid frames to fn. It returns
// more=false when the segment ended in a torn or corrupt frame (replay must
// not continue into later segments) and propagates only fn's errors —
// corruption is an expected crash artifact, not a failure.
func replaySegment(path string, fn func(Record) error) (more bool, n int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		// The segment existed at Open; if it cannot be read now, treat it
		// like corruption and stop rather than skipping a gap.
		return false, 0, nil //nolint:nilerr
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var body []byte
	for {
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return errors.Is(err, io.EOF), n, nil // clean EOF ⇒ next segment
		}
		if size == 0 || size > MaxRecord {
			return false, n, nil
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
			return false, n, nil
		}
		if cap(body) < int(size) {
			body = make([]byte, size)
		}
		body = body[:size]
		if _, err := io.ReadFull(br, body); err != nil {
			return false, n, nil
		}
		if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(crcBuf[:]) {
			return false, n, nil
		}
		n++
		if err := fn(Record{Kind: body[0], Data: body[1:]}); err != nil {
			return false, n, err
		}
	}
}

// RecoveredRecords reports how many records the last Replay handed out.
func (fw *File) RecoveredRecords() int64 {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.recovered
}

// Append frames and buffers rec; it becomes durable at the next Sync.
func (fw *File) Append(rec Record) error {
	if len(rec.Data)+1 > MaxRecord {
		return fmt.Errorf("storage: record of %d bytes exceeds MaxRecord", len(rec.Data))
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.closed {
		return errors.New("storage: append on closed wal")
	}
	if err := fw.ensureSegmentLocked(); err != nil {
		return err
	}
	var hdr [binary.MaxVarintLen64 + 4]byte
	bodyLen := uint64(len(rec.Data) + 1)
	k := binary.PutUvarint(hdr[:], bodyLen)
	crc := crc32.Checksum([]byte{rec.Kind}, crcTable)
	crc = crc32.Update(crc, crcTable, rec.Data)
	binary.LittleEndian.PutUint32(hdr[k:], crc)
	if _, err := fw.w.Write(hdr[:k+4]); err != nil {
		return err
	}
	if err := fw.w.WriteByte(rec.Kind); err != nil {
		return err
	}
	if _, err := fw.w.Write(rec.Data); err != nil {
		return err
	}
	fw.written += int64(k) + 4 + int64(bodyLen)
	fw.dirty = true
	obs.Inc(&fw.opts.Counters.Appends)
	obs.Add(&fw.opts.Counters.Bytes, int64(len(rec.Data)))
	return nil
}

// Sync flushes buffered frames to the OS and (unless NoFsync) to stable
// storage — the group-commit barrier.
func (fw *File) Sync() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.closed || fw.f == nil {
		return nil
	}
	if err := fw.w.Flush(); err != nil {
		return err
	}
	if fw.dirty && !fw.opts.NoFsync {
		if err := fw.f.Sync(); err != nil {
			return err
		}
	}
	fw.dirty = false
	obs.Inc(&fw.opts.Counters.Syncs)
	// Rotate after the barrier so a segment always ends on a whole frame.
	if fw.written >= fw.opts.SegmentBytes {
		if err := fw.f.Close(); err != nil {
			return err
		}
		fw.f, fw.w = nil, nil
		obs.Inc(&fw.opts.Counters.Rotations)
	}
	return nil
}

// Close flushes and releases the current segment.
func (fw *File) Close() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.closed {
		return nil
	}
	fw.closed = true
	if fw.f == nil {
		return nil
	}
	if err := fw.w.Flush(); err != nil {
		fw.f.Close()
		return err
	}
	return fw.f.Close()
}

// ensureSegmentLocked opens the next segment file for writing.
func (fw *File) ensureSegmentLocked() error {
	if fw.f != nil {
		return nil
	}
	path := filepath.Join(fw.dir, fmt.Sprintf("wal-%08d.seg", fw.nextSeg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: new segment: %w", err)
	}
	fw.nextSeg++
	fw.f = f
	fw.w = bufio.NewWriter(f)
	fw.written = 0
	if !fw.opts.NoFsync {
		// Make the directory entry durable too, so the segment itself
		// survives a machine crash right after creation.
		if d, err := os.Open(fw.dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
}
