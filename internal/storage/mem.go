package storage

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Mem is the in-memory WAL. It has the same durability *protocol* as File —
// appends buffer, Sync commits — but "durable" means "survives a simulated
// power cycle of the owning node", not a real machine crash: the records
// live in this process's heap. That is exactly what in-process power-cycle
// tests need (hand the dead node's Mem to its replacement and Replay), and
// it keeps the default live configuration free of disk I/O.
type Mem struct {
	mu      sync.Mutex
	durable []Record // committed by Sync; what Replay sees
	pending []Record // appended, not yet synced
	c       *obs.WALCounters
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

// Replay hands back the durable records in append order.
func (m *Mem) Replay(fn func(Record) error) error {
	start := time.Now()
	m.mu.Lock()
	recs := m.durable
	c := m.c
	m.mu.Unlock()
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	obs.Add(&c.RecoveredRecords, int64(len(recs)))
	obs.Add(&c.RecoveryNanos, int64(time.Since(start)))
	return nil
}

// Append buffers a copy of rec for the next Sync.
func (m *Mem) Append(rec Record) error {
	data := append([]byte(nil), rec.Data...)
	m.mu.Lock()
	m.pending = append(m.pending, Record{Kind: rec.Kind, Data: data})
	c := m.c
	m.mu.Unlock()
	obs.Inc(&c.Appends)
	obs.Add(&c.Bytes, int64(len(data)))
	return nil
}

// Sync commits all pending records.
func (m *Mem) Sync() error {
	m.mu.Lock()
	if len(m.pending) > 0 {
		m.durable = append(m.durable, m.pending...)
		m.pending = m.pending[:0]
	}
	c := m.c
	m.mu.Unlock()
	obs.Inc(&c.Syncs)
	return nil
}

// Close is a no-op for the in-memory WAL.
func (m *Mem) Close() error { return nil }

// PowerCycle simulates kill -9 on the owning node: unsynced appends are
// lost and the log is rearmed so a recovered node may Replay it again. The
// caller must ensure the dead node no longer touches the WAL (in tests the
// old node's transport endpoint is restarted first, parking its loops).
func (m *Mem) PowerCycle() {
	m.mu.Lock()
	m.pending = m.pending[:0]
	m.mu.Unlock()
}

// Len reports the number of durable records (test hook).
func (m *Mem) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.durable)
}
