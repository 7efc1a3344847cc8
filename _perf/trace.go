package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/obs"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// span is one timed interval of a traced repetition: a call into the
// file system or a call into a disk store. Times are host nanoseconds
// since the tracer started; calls also carry their simulated interval.
type span struct {
	name             string
	start, end       int64
	parent           int32
	simStart, simEnd sim.Time
	bytes            int
	failed           bool
}

// tracer keeps the spans of one traced repetition in memory, plus the
// obs.Recorder the file system reports its own spans and disk events
// to.
type tracer struct {
	base  time.Time
	spans []span
	open  int32
	rec   *obs.Recorder
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), open: -1, rec: obs.NewRecorder()}
}

func (t *tracer) begin(name string, now sim.Time) int32 {
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.base)), parent: t.open, simStart: now})
	t.open = int32(len(t.spans) - 1)
	return t.open
}

func (t *tracer) end(id int32, now sim.Time, err error) {
	s := &t.spans[id]
	s.end = int64(time.Since(t.base))
	s.simEnd = now
	s.failed = err != nil
	t.open = s.parent
}

// write saves the spans as JSON lines, one object per span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d}`+"\n",
			i, s.name, s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStore wraps a disk store so every read and write is a span,
// the child of whichever file-system call is open.
type timedStore struct {
	disk.Store
	tr *tracer
}

func (s *timedStore) ReadAt(p []byte, off int64) error {
	id := s.tr.begin("store.read", 0)
	err := s.Store.ReadAt(p, off)
	s.tr.end(id, 0, err)
	return err
}

func (s *timedStore) WriteAt(p []byte, off int64) error {
	id := s.tr.begin("store.write", 0)
	err := s.Store.WriteAt(p, off)
	s.tr.end(id, 0, err)
	s.tr.spans[id].bytes = len(p)
	return err
}

// probe wraps the file system under test. With a tracer it records a
// span around every call; in server mode it also folds each client's
// create, write and fsync calls into one op and times it on both
// clocks, exactly as server.Run does on the simulated one. It forwards
// every hook the server looks for (SetClient, Clock, FsyncFile,
// NoteWait, TickMetrics, DropCaches): a missing FsyncFile would make
// the server fall back to Sync and measure a different program.
type probe struct {
	fs target
	tr *tracer

	// Server mode: the client the server last named, each client's
	// open op, and the meter the ops are timed into; after, when set,
	// is called with the count of ops completed so far after each one.
	clients []clientOp
	client  int
	m       *meter
	after   func(ops int)
}

type clientOp struct {
	open  bool
	start sim.Time
	cpu   time.Duration
}

func newProbe(fs target, tr *tracer) *probe { return &probe{fs: fs, tr: tr} }

// serve switches the probe to server mode for n clients.
func (p *probe) serve(n int, m *meter) {
	p.clients = make([]clientOp, n+1)
	p.m = m
}

func (p *probe) begin(name string) (int32, time.Duration) {
	id := int32(-1)
	if p.tr != nil {
		id = p.tr.begin(name, p.fs.Clock().Now())
	}
	if p.clients != nil {
		if c := &p.clients[p.client]; !c.open {
			c.open, c.start, c.cpu = true, p.fs.Clock().Now(), 0
		}
	}
	return id, cpuNow()
}

func (p *probe) end(id int32, c0 time.Duration, err error) {
	if p.clients != nil {
		p.clients[p.client].cpu += cpuNow() - c0
	}
	if id >= 0 {
		p.tr.end(id, p.fs.Clock().Now(), err)
	}
}

func (p *probe) Create(path string) error {
	id, c0 := p.begin("core.create")
	err := p.fs.Create(path)
	p.end(id, c0, err)
	return err
}

func (p *probe) Write(path string, off int64, data []byte) error {
	id, c0 := p.begin("core.write")
	err := p.fs.Write(path, off, data)
	p.end(id, c0, err)
	return err
}

func (p *probe) Read(path string, off int64, buf []byte) (int, error) {
	id, c0 := p.begin("core.read")
	n, err := p.fs.Read(path, off, buf)
	p.end(id, c0, err)
	return n, err
}

func (p *probe) Remove(path string) error {
	id, c0 := p.begin("core.remove")
	err := p.fs.Remove(path)
	p.end(id, c0, err)
	return err
}

func (p *probe) Sync() error {
	id, c0 := p.begin("core.sync")
	err := p.fs.Sync()
	p.end(id, c0, err)
	return err
}

func (p *probe) FsyncFile(path string) error {
	id, c0 := p.begin("core.fsync")
	err := p.fs.FsyncFile(path)
	p.end(id, c0, err)
	if p.clients != nil && err == nil {
		c := &p.clients[p.client]
		p.m.record(c.cpu, p.fs.Clock().Now().Sub(c.start))
		c.open = false
		if p.after != nil {
			p.after(len(p.m.simLat))
		}
	}
	return err
}

func (p *probe) SetClient(id int) {
	p.client = id
	p.fs.SetClient(id)
}

func (p *probe) Clock() *sim.Clock                           { return p.fs.Clock() }
func (p *probe) NoteWait(kind obs.PhaseKind, d sim.Duration) { p.fs.NoteWait(kind, d) }
func (p *probe) TickMetrics()                                { p.fs.TickMetrics() }
func (p *probe) DropCaches()                                 { p.fs.DropCaches() }
func (p *probe) Mkdir(path string) error                     { return p.fs.Mkdir(path) }
func (p *probe) Stat(path string) (vfs.FileInfo, error)      { return p.fs.Stat(path) }
func (p *probe) ReadDir(path string) ([]layout.DirEntry, error) {
	return p.fs.ReadDir(path)
}
func (p *probe) Rename(oldPath, newPath string) error   { return p.fs.Rename(oldPath, newPath) }
func (p *probe) Link(oldPath, newPath string) error     { return p.fs.Link(oldPath, newPath) }
func (p *probe) Truncate(path string, size int64) error { return p.fs.Truncate(path, size) }
func (p *probe) Unmount() error                         { return p.fs.Unmount() }
