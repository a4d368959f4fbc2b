package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"tss/internal/vfs"
)

// Layers a span can belong to, outermost first. A span is named by the
// layer whose public function was called.
const (
	layerOp          uint8 = iota // one application request (the root)
	layerAdapter                  // adapter.Adapter
	layerAbstraction              // abstraction CFS / DSFS
	layerCache                    // cache.FS
	layerCopy                     // vfs.Copy
	layerClient                   // chirp.Client / chirp.Pool
	numLayers
)

var layerNames = [numLayers]string{"op", "adapter", "abstraction", "cache", "vfs_copy", "chirp_client"}

// Operations a span can record.
const (
	opStat uint8 = iota
	opOpen
	opPread
	opPwrite
	opClose
	opReaddir
	opFstat
	opUnlink
	opGetfile
	opLease
	opLeasebreak
	opPutbegin
	opPart
	opPutcomplete
	opCopy
	opOther
	// Root spans: one per application request, named by its mix entry.
	opRead
	opOverwrite
	opCreate
	opPut
	numOps
)

var opNames = [numOps]string{
	"stat", "open", "pread", "pwrite", "close", "readdir", "fstat", "unlink",
	"getfile", "lease", "leasebreak", "putbegin", "part", "putcomplete", "copy", "other",
	"read", "overwrite", "create", "put",
}

// span is one call across a layer boundary. Times are nanoseconds
// since the tracer's epoch; parent is an index into the same tracer's
// span slice, or -1 for a root.
type span struct {
	req        int64
	parent     int32
	layer, op  uint8
	start, end int64
}

// tracer records the spans of one client in memory. Calls on the
// client's own goroutine nest through the stack; calls made from other
// goroutines (the copy engine's chunk workers) attach to the span on
// top of the stack without pushing, so concurrent leaves never corrupt
// the nesting. A nil tracer, or one that is off, records nothing.
type tracer struct {
	epoch time.Time
	// on is flipped only while no client goroutine runs.
	on bool

	mu    sync.Mutex
	req   int64
	stack []int32
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// root opens the span of a new application request.
func (t *tracer) root(op uint8) int32 {
	if t == nil || !t.on {
		return -1
	}
	t.mu.Lock()
	t.req++
	t.mu.Unlock()
	return t.begin(layerOp, op, true)
}

// begin opens a span. push makes it the parent of spans begun until it
// ends; leaves (the bottom layer, and anything called concurrently)
// do not push.
func (t *tracer) begin(layer, op uint8, push bool) int32 {
	if t == nil || !t.on {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{req: t.req, parent: parent, layer: layer, op: op, start: now, end: now})
	if push {
		t.stack = append(t.stack, id)
	}
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].end = now
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	t.mu.Unlock()
}

// selfTimes returns, for each span, its duration minus the part of its
// interval covered by its children. Overlapping children (parallel
// chunks) are merged first, so covered time is never counted twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := spans[i]
		self[i] = s.end - s.start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		iv := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			a, b := spans[k].start, spans[k].end
			if a < s.start {
				a = s.start
			}
			if b > s.end {
				b = s.end
			}
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, curA, curB int64
		started := false
		for _, v := range iv {
			switch {
			case !started:
				curA, curB, started = v[0], v[1], true
			case v[0] <= curB:
				if v[1] > curB {
					curB = v[1]
				}
			default:
				covered += curB - curA
				curA, curB = v[0], v[1]
			}
		}
		if started {
			covered += curB - curA
		}
		self[i] -= covered
	}
	return self
}

// layerStats aggregates one traced phase.
type layerStats struct {
	calls [numLayers]int64
	self  [numLayers]int64 // ns
	// byOp holds call count and summed duration per (layer, op).
	byOp [numLayers][numOps][2]int64
	// down counts chirp_client calls made directly by each layer.
	down [numLayers]int64
}

func (ls *layerStats) add(spans []span) {
	self := selfTimes(spans)
	for i, s := range spans {
		ls.calls[s.layer]++
		ls.self[s.layer] += self[i]
		ls.byOp[s.layer][s.op][0]++
		ls.byOp[s.layer][s.op][1] += s.end - s.start
		if s.layer == layerClient && s.parent >= 0 {
			ls.down[spans[s.parent].layer]++
		}
	}
}

// meanUS is the mean duration in microseconds of calls of op into layer.
func (ls *layerStats) meanUS(layer, op uint8) float64 {
	c := ls.byOp[layer][op]
	if c[0] == 0 {
		return 0
	}
	return float64(c[1]) / float64(c[0]) / 1e3
}

// selfUS is the mean self time in microseconds per call into layer.
func (ls *layerStats) selfUS(layer uint8) float64 {
	if ls.calls[layer] == 0 {
		return 0
	}
	return float64(ls.self[layer]) / float64(ls.calls[layer]) / 1e3
}

// writeSpans dumps every client's spans as tab-separated lines:
// client, span, request, parent, layer, op, start_ns, end_ns.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "client\tspan\treq\tparent\tlayer\top\tstart_ns\tend_ns")
	for c, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%s\t%d\t%d\n",
				c, i, s.req, s.parent, layerNames[s.layer], opNames[s.op], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedFS records a span around every call into the wrapped layer and
// forwards it unchanged. It forwards the wrapped layer's capabilities,
// each wrapped the same way, so fast paths (getfile stubs, open+stat,
// leases, multipart) survive the wrapping.
type tracedFS struct {
	inner vfs.FileSystem
	layer uint8
	leaf  bool
	t     *tracer
	caps  vfs.Capability
}

var _ vfs.Capabler = (*tracedFS)(nil)

func traced(inner vfs.FileSystem, layer uint8, t *tracer) *tracedFS {
	f := &tracedFS{inner: inner, layer: layer, leaf: layer == layerClient, t: t}
	f.caps = f.wrapCapabilities()
	return f
}

func (f *tracedFS) begin(op uint8) int32 { return f.t.begin(f.layer, op, !f.leaf) }

func (f *tracedFS) file(inner vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &tracedFile{inner: inner, fs: f}, nil
}

func (f *tracedFS) Open(path string, flags int, mode uint32) (vfs.File, error) {
	id := f.begin(opOpen)
	h, err := f.inner.Open(path, flags, mode)
	f.t.end(id)
	return f.file(h, err)
}

func (f *tracedFS) Stat(path string) (vfs.FileInfo, error) {
	id := f.begin(opStat)
	defer f.t.end(id)
	return f.inner.Stat(path)
}

func (f *tracedFS) Unlink(path string) error {
	id := f.begin(opUnlink)
	defer f.t.end(id)
	return f.inner.Unlink(path)
}

func (f *tracedFS) Rename(oldPath, newPath string) error {
	id := f.begin(opOther)
	defer f.t.end(id)
	return f.inner.Rename(oldPath, newPath)
}

func (f *tracedFS) Mkdir(path string, mode uint32) error {
	id := f.begin(opOther)
	defer f.t.end(id)
	return f.inner.Mkdir(path, mode)
}

func (f *tracedFS) Rmdir(path string) error {
	id := f.begin(opOther)
	defer f.t.end(id)
	return f.inner.Rmdir(path)
}

func (f *tracedFS) ReadDir(path string) ([]vfs.DirEntry, error) {
	id := f.begin(opReaddir)
	defer f.t.end(id)
	return f.inner.ReadDir(path)
}

func (f *tracedFS) Truncate(path string, size int64) error {
	id := f.begin(opOther)
	defer f.t.end(id)
	return f.inner.Truncate(path, size)
}

func (f *tracedFS) Chmod(path string, mode uint32) error {
	id := f.begin(opOther)
	defer f.t.end(id)
	return f.inner.Chmod(path, mode)
}

func (f *tracedFS) StatFS() (vfs.FSInfo, error) {
	id := f.begin(opOther)
	defer f.t.end(id)
	return f.inner.StatFS()
}

func (f *tracedFS) Capabilities() vfs.Capability { return f.caps }

// wrapCapabilities runs once, at construction: every layer below
// reports a fixed capability set, and probing per call would allocate.
func (f *tracedFS) wrapCapabilities() vfs.Capability {
	in := vfs.Capabilities(f.inner)
	c := vfs.Capability{Reconnector: in.Reconnector, Closer: in.Closer, Checksummer: in.Checksummer}
	if in.OpenStater != nil {
		c.OpenStater = tracedOpenStater{f, in.OpenStater}
	}
	if in.FileGetter != nil {
		c.FileGetter = tracedGetter{f, in.FileGetter}
	}
	if in.FilePutter != nil {
		c.FilePutter = tracedPutter{f, in.FilePutter}
	}
	if in.PartGetter != nil {
		c.PartGetter = tracedPartGetter{f, in.PartGetter}
	}
	if in.PartPutter != nil {
		c.PartPutter = tracedPartPutter{f, in.PartPutter}
	}
	if in.Leaser != nil {
		c.Leaser = tracedLeaser{f, in.Leaser}
	}
	return c
}

type tracedOpenStater struct {
	fs    *tracedFS
	inner vfs.OpenStater
}

func (o tracedOpenStater) OpenStat(path string, flags int, mode uint32) (vfs.File, vfs.FileInfo, error) {
	id := o.fs.begin(opOpen)
	h, fi, err := o.inner.OpenStat(path, flags, mode)
	o.fs.t.end(id)
	h, err = o.fs.file(h, err)
	return h, fi, err
}

type tracedGetter struct {
	fs    *tracedFS
	inner vfs.FileGetter
}

func (g tracedGetter) GetFile(path string, w io.Writer) (int64, error) {
	id := g.fs.begin(opGetfile)
	defer g.fs.t.end(id)
	return g.inner.GetFile(path, w)
}

type tracedPutter struct {
	fs    *tracedFS
	inner vfs.FilePutter
}

func (p tracedPutter) PutFile(path string, mode uint32, size int64, r io.Reader) error {
	id := p.fs.begin(opOther)
	defer p.fs.t.end(id)
	return p.inner.PutFile(path, mode, size, r)
}

type tracedPartGetter struct {
	fs    *tracedFS
	inner vfs.PartGetter
}

func (g tracedPartGetter) GetPart(path string, off, length int64, algo string, w io.Writer) (int64, string, error) {
	id := g.fs.begin(opPart)
	defer g.fs.t.end(id)
	return g.inner.GetPart(path, off, length, algo, w)
}

type tracedPartPutter struct {
	fs    *tracedFS
	inner vfs.PartPutter
}

func (p tracedPartPutter) PutBegin(path string, mode uint32, size int64) error {
	id := p.fs.begin(opPutbegin)
	defer p.fs.t.end(id)
	return p.inner.PutBegin(path, mode, size)
}

func (p tracedPartPutter) PutPart(path string, off, length int64, algo string, r io.Reader) (string, error) {
	id := p.fs.begin(opPart)
	defer p.fs.t.end(id)
	return p.inner.PutPart(path, off, length, algo, r)
}

func (p tracedPartPutter) PutComplete(path string, size int64, algo, sum string) error {
	id := p.fs.begin(opPutcomplete)
	defer p.fs.t.end(id)
	return p.inner.PutComplete(path, size, algo, sum)
}

type tracedLeaser struct {
	fs    *tracedFS
	inner vfs.Leaser
}

func (l tracedLeaser) Lease(path string) (vfs.Lease, error) {
	id := l.fs.begin(opLease)
	defer l.fs.t.end(id)
	return l.inner.Lease(path)
}

func (l tracedLeaser) LeaseBreak(lid int64) error {
	id := l.fs.begin(opLeasebreak)
	defer l.fs.t.end(id)
	return l.inner.LeaseBreak(lid)
}

type tracedFile struct {
	inner vfs.File
	fs    *tracedFS
}

func (f *tracedFile) Pread(p []byte, off int64) (int, error) {
	id := f.fs.begin(opPread)
	defer f.fs.t.end(id)
	return f.inner.Pread(p, off)
}

func (f *tracedFile) Pwrite(p []byte, off int64) (int, error) {
	id := f.fs.begin(opPwrite)
	defer f.fs.t.end(id)
	return f.inner.Pwrite(p, off)
}

func (f *tracedFile) Fstat() (vfs.FileInfo, error) {
	id := f.fs.begin(opFstat)
	defer f.fs.t.end(id)
	return f.inner.Fstat()
}

func (f *tracedFile) Ftruncate(size int64) error {
	id := f.fs.begin(opOther)
	defer f.fs.t.end(id)
	return f.inner.Ftruncate(size)
}

func (f *tracedFile) Sync() error {
	id := f.fs.begin(opOther)
	defer f.fs.t.end(id)
	return f.inner.Sync()
}

func (f *tracedFile) Close() error {
	id := f.fs.begin(opClose)
	defer f.fs.t.end(id)
	return f.inner.Close()
}
