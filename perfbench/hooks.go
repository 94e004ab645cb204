package main

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"goomp/internal/collector"
	"goomp/internal/ingest"
)

// hooks are the traced pass's instruments. Each sits on a public hook
// of one layer, so the benchmark times the layer from outside without
// changing it: tool.Options.WrapCallback (callbacks), OpenTraceFile and
// the WriteTraces writer (file sink), DialIngest (wire) and
// ingest.Options.FS (psxd storage).
type hooks struct {
	cb [4]cbShard

	fileBytes, fileWrites, fileNs atomic.Int64

	wireBytes, wireWriteNs, ackWaitNs atomic.Int64
	lastWire                          atomic.Int64 // UnixNano of the last wire write

	fsWrites, fsBytes, fsWriteNs atomic.Int64
	fsSyncs, fsSyncNs            atomic.Int64
}

// cbShard holds one thread's callback tallies, padded so the two
// team threads do not share a cache line.
type cbShard struct {
	joinCalls, joinNs   atomic.Int64
	otherCalls, otherNs atomic.Int64
	_                   [32]byte
}

func (h *hooks) wrapCallback(cb collector.Callback) collector.Callback {
	return func(e collector.Event, ti *collector.ThreadInfo) {
		start := time.Now()
		cb(e, ti)
		d := int64(time.Since(start))
		s := &h.cb[ti.ID&3]
		if e == collector.EventJoin {
			s.joinCalls.Add(1)
			s.joinNs.Add(d)
			return
		}
		s.otherCalls.Add(1)
		s.otherNs.Add(d)
	}
}

// callbacks returns the wrapped-callback totals: join calls and time,
// other calls and time.
func (h *hooks) callbacks() (joinCalls, joinNs, otherCalls, otherNs int64) {
	for i := range h.cb {
		s := &h.cb[i]
		joinCalls += s.joinCalls.Load()
		joinNs += s.joinNs.Load()
		otherCalls += s.otherCalls.Load()
		otherNs += s.otherNs.Load()
	}
	return
}

// countFile wraps a trace file of the tool's file sink.
func (h *hooks) countFile(w io.WriteCloser) io.WriteCloser {
	return &countedFile{WriteCloser: w, h: h}
}

type countedFile struct {
	io.WriteCloser
	h *hooks
}

func (f *countedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.WriteCloser.Write(p)
	f.h.fileNs.Add(int64(time.Since(start)))
	f.h.fileBytes.Add(int64(n))
	f.h.fileWrites.Add(1)
	return n, err
}

// handshake wraps the network sink's dial. Its ready channel closes
// when the first bytes of the HELLO-ACK arrive, which is when the
// sink's handshake with psxd completes; with hooks it also times the
// wire.
type handshake struct {
	h     *hooks
	once  sync.Once
	ready chan struct{}
}

func newHandshake(h *hooks) *handshake {
	return &handshake{h: h, ready: make(chan struct{})}
}

func (hs *handshake) dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &wireConn{Conn: c, hs: hs}, nil
}

type wireConn struct {
	net.Conn
	hs *handshake
}

func (c *wireConn) Read(p []byte) (int, error) {
	h := c.hs.h
	var start time.Time
	if h != nil {
		start = time.Now()
	}
	n, err := c.Conn.Read(p)
	if h != nil {
		h.ackWaitNs.Add(int64(time.Since(start)))
	}
	if n > 0 {
		c.hs.once.Do(func() { close(c.hs.ready) })
	}
	return n, err
}

func (c *wireConn) Write(p []byte) (int, error) {
	h := c.hs.h
	if h == nil {
		return c.Conn.Write(p)
	}
	start := time.Now()
	n, err := c.Conn.Write(p)
	end := time.Now()
	h.wireWriteNs.Add(int64(end.Sub(start)))
	h.wireBytes.Add(int64(n))
	h.lastWire.Store(end.UnixNano())
	return n, err
}

// ingestFS is psxd's storage with every write and sync timed. Syncs
// are counted only on append-mode files (per-thread traces and the
// journal), the ones the server's own fsync counter covers; Create
// serves only the manifest's temp file, whose sync is timed as a
// write.
type ingestFS struct{ h *hooks }

func (fs ingestFS) Create(path string) (ingest.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &countedIngestFile{File: f, h: fs.h}, nil
}

func (fs ingestFS) OpenAppend(path string) (ingest.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &countedIngestFile{File: f, h: fs.h, counted: true}, nil
}

func (ingestFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

type countedIngestFile struct {
	ingest.File
	h       *hooks
	counted bool // syncs here are in the server's fsync count
}

func (f *countedIngestFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.h.fsWriteNs.Add(int64(time.Since(start)))
	f.h.fsBytes.Add(int64(n))
	f.h.fsWrites.Add(1)
	return n, err
}

func (f *countedIngestFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := int64(time.Since(start))
	if !f.counted {
		f.h.fsWriteNs.Add(d)
		return err
	}
	f.h.fsSyncNs.Add(d)
	if err == nil {
		f.h.fsSyncs.Add(1)
	}
	return err
}
