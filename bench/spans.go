package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"telcolens/internal/faultfs"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the recorder started; Op ties the spans of one traced op
// together; Parent is the span that was open when this one began.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of a traced run in memory. The replay has one
// client, so layer spans open and close on that goroutine like a stack;
// filesystem spans may come from a layer's worker goroutines and attach
// to whichever layer span is open. Spans are written out at the end.
type recorder struct {
	t0 time.Time
	on atomic.Bool // spans are only kept while on

	mu    sync.Mutex
	spans []span
	cur   atomic.Int32 // innermost open layer span (0: none)
	op    atomic.Int32 // current op id
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a layer span under the currently open one and returns its
// id (0 while recording is off).
func (r *recorder) begin(layer, name string) int32 {
	if !r.on.Load() {
		return 0
	}
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: r.cur.Load(), Op: r.op.Load(), Layer: layer, Name: name, Start: r.now()})
	r.mu.Unlock()
	r.cur.Store(id)
	return id
}

// end closes the span begin returned and reopens its parent.
func (r *recorder) end(id int32) {
	if id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = r.now()
	parent := r.spans[id-1].Parent
	r.mu.Unlock()
	r.cur.Store(parent)
}

// call wraps one call into a layer in a span.
func (r *recorder) call(layer, name string, fn func() error) error {
	id := r.begin(layer, name)
	defer r.end(id)
	return fn()
}

// beginOp opens the root span of the next traced op.
func (r *recorder) beginOp(name string) int32 {
	r.op.Add(1)
	return r.begin("bench", name)
}

// leaf records a finished span (a filesystem call) under the open layer
// span; safe from any goroutine.
func (r *recorder) leaf(layer, name string, start int64) {
	if !r.on.Load() {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: int32(len(r.spans) + 1), Parent: r.cur.Load(), Op: r.op.Load(),
		Layer: layer, Name: name, Start: start, End: end})
	r.mu.Unlock()
}

// replayTimes returns, over the ops from firstOp on (earlier ops are
// set-up and probes): per layer the summed self time of its spans — a
// span's duration minus the part of it its child spans cover — plus the
// summed duration and the number of the op root spans.
func (r *recorder) replayTimes(firstOp int32) (self map[string]time.Duration, wall time.Duration, ops int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int32][]int32)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self = make(map[string]time.Duration)
	for _, s := range r.spans {
		if s.Op < firstOp {
			continue
		}
		if s.Parent == 0 && s.Layer == "bench" {
			wall += time.Duration(s.End - s.Start)
			ops++
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return r.spans[kids[i]-1].Start < r.spans[kids[j]-1].Start })
		covered, upto := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(r.spans[k-1].Start, upto), min(r.spans[k-1].End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.Layer] += time.Duration(s.End - s.Start - covered)
	}
	return self, wall, ops
}

// write stores the spans as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	r.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// fsCounts is what the device layer was asked to do.
type fsCounts struct {
	reads, readBytes   atomic.Int64
	writes, writeBytes atomic.Int64
	fsyncs, renames    atomic.Int64
	otherOps           atomic.Int64 // open, stat, readdir, mkdir, remove, chmod, close
	nanos              atomic.Int64 // time inside the filesystem
}

func (c *fsCounts) ops() int64 {
	return c.reads.Load() + c.writes.Load() + c.fsyncs.Load() + c.renames.Load() + c.otherOps.Load()
}

// countFS is a counting, timing faultfs.FS over the real filesystem,
// handed to the layers through their FS options. Each call is a leaf
// span of layer "faultfs".
type countFS struct {
	rec *recorder
	c   fsCounts
}

// timed runs one filesystem call, charging its time and span.
func (f *countFS) timed(name string, counter *atomic.Int64, fn func()) {
	start := f.rec.now()
	fn()
	f.c.nanos.Add(f.rec.now() - start)
	counter.Add(1)
	f.rec.leaf("faultfs", name, start)
}

func (f *countFS) OpenFile(name string, flag int, perm fs.FileMode) (file faultfs.File, err error) {
	f.timed("open", &f.c.otherOps, func() { file, err = os.OpenFile(name, flag, perm) })
	if err != nil {
		return nil, err
	}
	return &countFile{File: file, fs: f}, nil
}

func (f *countFS) ReadFile(name string) (data []byte, err error) {
	f.timed("readfile", &f.c.reads, func() { data, err = os.ReadFile(name) })
	f.c.readBytes.Add(int64(len(data)))
	return data, err
}

func (f *countFS) ReadDir(name string) (ents []fs.DirEntry, err error) {
	f.timed("readdir", &f.c.otherOps, func() { ents, err = os.ReadDir(name) })
	return ents, err
}

func (f *countFS) MkdirAll(path string, perm fs.FileMode) (err error) {
	f.timed("mkdir", &f.c.otherOps, func() { err = os.MkdirAll(path, perm) })
	return err
}

func (f *countFS) Rename(oldpath, newpath string) (err error) {
	f.timed("rename", &f.c.renames, func() { err = os.Rename(oldpath, newpath) })
	return err
}

func (f *countFS) Remove(name string) (err error) {
	f.timed("remove", &f.c.otherOps, func() { err = os.Remove(name) })
	return err
}

func (f *countFS) Stat(name string) (info fs.FileInfo, err error) {
	f.timed("stat", &f.c.otherOps, func() { info, err = os.Stat(name) })
	return info, err
}

func (f *countFS) Chmod(name string, mode fs.FileMode) (err error) {
	f.timed("chmod", &f.c.otherOps, func() { err = os.Chmod(name, mode) })
	return err
}

func (f *countFS) SyncDir(dir string) (err error) {
	f.timed("syncdir", &f.c.fsyncs, func() { err = faultfs.OS{}.SyncDir(dir) })
	return err
}

// countFile counts and times the per-file calls.
type countFile struct {
	faultfs.File
	fs *countFS
}

func (f *countFile) Read(p []byte) (n int, err error) {
	f.fs.timed("read", &f.fs.c.reads, func() { n, err = f.File.Read(p) })
	f.fs.c.readBytes.Add(int64(n))
	return n, err
}

func (f *countFile) ReadAt(p []byte, off int64) (n int, err error) {
	f.fs.timed("readat", &f.fs.c.reads, func() { n, err = f.File.ReadAt(p, off) })
	f.fs.c.readBytes.Add(int64(n))
	return n, err
}

func (f *countFile) Write(p []byte) (n int, err error) {
	f.fs.timed("write", &f.fs.c.writes, func() { n, err = f.File.Write(p) })
	f.fs.c.writeBytes.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() (err error) {
	f.fs.timed("fsync", &f.fs.c.fsyncs, func() { err = f.File.Sync() })
	return err
}

func (f *countFile) Close() (err error) {
	f.fs.timed("close", &f.fs.c.otherOps, func() { err = f.File.Close() })
	return err
}
