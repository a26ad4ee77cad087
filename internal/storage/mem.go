package storage

import (
	"encoding/binary"
	"sync"
	"time"

	"repro/internal/obs"
)

// memPageMax caps the size of a Mem page. A Mem's first page is 1/64 of it
// and each further page doubles, so a WAL that holds a few records costs a
// few kilobytes, not a full page.
const memPageMax = 64 << 10

// Mem is the in-memory WAL. It has the same durability *protocol* as File —
// appends buffer, Sync commits — but "durable" means "survives a simulated
// power cycle of the owning node", not a real machine crash: the records
// live in this process's heap. That is exactly what in-process power-cycle
// tests need (hand the dead node's Mem to its replacement and Replay), and
// it keeps the default live configuration free of disk I/O.
//
// The log is one append-only byte string, each record encoded as its kind
// byte, a uvarint data length and the data, kept in pages that hold no
// pointers, so the garbage collector never scans the records. A record
// lives whole in one page: one that does not fit the open page's room opens
// the next, and one larger than a page gets a page of its own size. The
// durable watermark is the end of the last Sync: Append copies into the
// open page, Sync moves the watermark, PowerCycle cuts the log back to it
// and Replay walks the pages below it. Bytes below the watermark are never
// written again.
type Mem struct {
	mu    sync.Mutex
	pages [][]byte // len of a page: its bytes written so far
	// durable is the watermark: the first durablePage pages' bytes up to
	// durableOff in the last of them. Zero before the first Sync.
	durablePage int
	durableOff  int
	// records and durableRecords count the records in the log and below
	// the watermark.
	records, durableRecords int
	c                       *obs.WALCounters
}

// NewMem builds an empty in-memory WAL counting into a private block.
func NewMem() *Mem { return &Mem{c: new(obs.WALCounters)} }

// Observe attaches a counter block (nil: a fresh private one). Returns m
// for chaining.
func (m *Mem) Observe(c *obs.WALCounters) *Mem {
	if c == nil {
		c = new(obs.WALCounters)
	}
	m.mu.Lock()
	m.c = c
	m.mu.Unlock()
	return m
}

// Replay hands back the durable records in append order. The pages below
// the watermark are read without the lock: nothing writes them again.
func (m *Mem) Replay(fn func(Record) error) error {
	start := time.Now()
	m.mu.Lock()
	var pages [][]byte
	if len(m.pages) > 0 {
		pages = append(pages, m.pages[:m.durablePage+1]...)
		pages[m.durablePage] = pages[m.durablePage][:m.durableOff]
	}
	c := m.c
	m.mu.Unlock()
	var n int64
	for _, pg := range pages {
		for len(pg) > 0 {
			l, k := binary.Uvarint(pg[1:])
			data := pg[1+k : 1+k+int(l) : 1+k+int(l)]
			if err := fn(Record{Kind: pg[0], Data: data}); err != nil {
				return err
			}
			pg = pg[1+k+int(l):]
			n++
		}
	}
	obs.Add(&c.RecoveredRecords, n)
	obs.Add(&c.RecoveryNanos, int64(time.Since(start)))
	return nil
}

// Append copies rec into the open page, behind the watermark until the
// next Sync.
func (m *Mem) Append(rec Record) error {
	need := 1 + uvarintLen(uint64(len(rec.Data))) + len(rec.Data)
	m.mu.Lock()
	last := len(m.pages) - 1
	if last < 0 || cap(m.pages[last])-len(m.pages[last]) < need {
		size := memPageMax >> 6
		if last >= 0 {
			size = min(2*cap(m.pages[last]), memPageMax)
		}
		m.pages = append(m.pages, make([]byte, 0, max(size, need)))
		last++
	}
	pg := append(m.pages[last], rec.Kind)
	pg = binary.AppendUvarint(pg, uint64(len(rec.Data)))
	m.pages[last] = append(pg, rec.Data...)
	m.records++
	c := m.c
	m.mu.Unlock()
	obs.Inc(&c.Appends)
	obs.Add(&c.Bytes, int64(len(rec.Data)))
	return nil
}

// Sync moves the watermark to the end of the log.
func (m *Mem) Sync() error {
	m.mu.Lock()
	if last := len(m.pages) - 1; last >= 0 {
		m.durablePage, m.durableOff = last, len(m.pages[last])
	}
	m.durableRecords = m.records
	c := m.c
	m.mu.Unlock()
	obs.Inc(&c.Syncs)
	return nil
}

// Close is a no-op for the in-memory WAL.
func (m *Mem) Close() error { return nil }

// PowerCycle simulates kill -9 on the owning node: the log is cut back to
// the watermark, losing unsynced appends, and a recovered node may Replay it
// again. The caller must ensure the dead node no longer touches the WAL (in
// tests the old node's transport endpoint is restarted first, parking its
// loops).
func (m *Mem) PowerCycle() {
	m.mu.Lock()
	if len(m.pages) > 0 {
		clear(m.pages[m.durablePage+1:])
		m.pages = m.pages[:m.durablePage+1]
		m.pages[m.durablePage] = m.pages[m.durablePage][:m.durableOff]
	}
	m.records = m.durableRecords
	m.mu.Unlock()
}

// Len reports the number of durable records (test hook).
func (m *Mem) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.durableRecords
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}
