package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tss/internal/abstraction"
	"tss/internal/cache"
	"tss/internal/vfs"
)

// The fixture namespace shared by smallfile-dsfs and cached-zipf:
// nFiles files in nDirs leaf directories three levels deep,
// /dA/dB/dC/fNN with A, B, C in 0..3 and NN in 00..63.
const (
	nFiles      = 4096
	nDirs       = 64
	filesPerDir = nFiles / nDirs
)

var (
	filePaths [nFiles]string // path inside the export
	dirPaths  [nDirs]string
	// The same paths as the application names them, under the adapter
	// mount point /m.
	appFiles [nFiles]string
	appDirs  [nDirs]string
)

func init() {
	for i := range filePaths {
		d := i / filesPerDir
		dirPaths[d] = fmt.Sprintf("/d%d/d%d/d%d", d>>4, d>>2&3, d&3)
		filePaths[i] = fmt.Sprintf("%s/f%02d", dirPaths[d], i%filesPerDir)
		appDirs[d] = mounted(dirPaths[d])
		appFiles[i] = mounted(filePaths[i])
	}
}

// mounted prefixes an export path with the adapter mount point.
func mounted(p string) string { return "/m" + p }

// fileState is the benchmark's record of one fixture file: the latest
// generation written, under a lock that keeps the two clients from
// reading a block while the other rewrites it in place (the kernel
// does not promise that a pread never sees half of a racing pwrite).
// loose records a write that failed midway: any generation up to gen
// may then be on disk.
type fileState struct {
	mu    sync.RWMutex
	gen   uint64
	loose bool
}

// client is one closed-loop application: step issues its next request,
// blocks until it completes, and records it.
type client interface {
	step(st *phaseStats)
}

// workload assembles the stack for one named workload over a fresh
// export directory and returns its clients. Fixture seeding is part of
// the set-up being timed.
type workload struct {
	name  string
	setup func(s *stack, dir string, cfg config) ([]client, error)
}

var workloads = []workload{
	{"smallfile-dsfs", setupSmallfile},
	{"bulk-cfs", setupBulk},
	{"cached-zipf", setupZipf},
}

// base is the state every client of a workload shares.
type base struct {
	fs          vfs.FileSystem // the adapter, as the application sees it
	t           *tracer
	rng         *rand.Rand
	contentSeed uint64
	buf         []byte
	scratch     []byte
}

func newBase(fs vfs.FileSystem, t *tracer, seed int64, client int, bufSize int) base {
	return base{
		fs:          fs,
		t:           t,
		rng:         rand.New(rand.NewSource(mix(seed, uint64(client)+1))),
		contentSeed: uint64(mix(seed, 0)),
		buf:         make([]byte, bufSize),
		scratch:     make([]byte, blockSize),
	}
}

// readFile opens path, preads n bytes at offset 0 into buf, and
// closes it; a short read is returned as got < n.
func readFile(fs vfs.FileSystem, path string, buf []byte) (got int, err error) {
	f, err := fs.Open(path, vfs.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	got, err = f.Pread(buf, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return got, err
}

// writeAt opens path with flags, pwrites p at offset 0, and closes it.
func writeAt(fs vfs.FileSystem, path string, flags int, p []byte) error {
	f, err := fs.Open(path, flags, 0o644)
	if err != nil {
		return err
	}
	err = vfs.WriteAll(f, p, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- the file mixes: smallfile-dsfs and cached-zipf ----

// mixEntry is one operation of a mix: it is drawn when a uniform
// percentile falls below upTo and not below the previous entry's.
type mixEntry struct {
	op   uint8
	upTo int
}

// mixClient runs one of the two file mixes over the shared fixture
// namespace. The mixes differ only in their entries, in how a key is
// picked, in the size of a fixture file, and in which generations a
// read may return.
type mixClient struct {
	base
	id    int
	mix   []mixEntry
	pick  func() int // the next key, an index into filePaths
	size  int        // bytes per fixture file
	files []fileState
	// latest requires every read to return what was written last;
	// without it (a client cache, whose leases bound staleness) a block
	// of any generation written so far is a correct read.
	latest bool
	tmp    int
}

// step issues the mix's next request. Only block 0 of a file is ever
// rewritten, so its latest content is block 0 at the file's generation
// and every later block at generation 0.
func (c *mixClient) step(st *phaseStats) {
	r := c.rng.Intn(100)
	i := c.pick()
	op := c.mix[len(c.mix)-1].op
	for _, e := range c.mix {
		if r < e.upTo {
			op = e.op
			break
		}
	}
	p := filePaths[i]
	fs := &c.files[i]
	var (
		err    error
		wrong  bool
		rbytes int
		wbytes int
		start  = time.Now()
		root   = c.t.root(op)
	)
	switch op {
	case opStat:
		var fi vfs.FileInfo
		fi, err = c.fs.Stat(appFiles[i])
		wrong = err == nil && (fi.IsDir || fi.Size != int64(c.size))
	case opRead:
		fs.mu.RLock()
		var got int
		got, err = readFile(c.fs, appFiles[i], c.buf)
		if err == nil {
			rbytes = got
			wrong = got != c.size
			for b := 0; !wrong && b < c.size/blockSize; b++ {
				gen, ok := checkBlock(c.buf[b*blockSize:(b+1)*blockSize], c.scratch, c.contentSeed, p, uint32(b))
				want := uint64(0)
				if b == 0 {
					want = fs.gen
				}
				wrong = !ok || gen > fs.gen || (c.latest && !fs.loose && gen != want)
			}
		}
		fs.mu.RUnlock()
	case opReaddir:
		var ents []vfs.DirEntry
		ents, err = c.fs.ReadDir(appDirs[i/filesPerDir])
		wrong = err == nil && !listingOK(ents)
	case opOverwrite:
		fs.mu.Lock()
		gen := fs.gen + 1
		fillBlock(c.buf, c.contentSeed, p, gen, 0)
		err = writeAt(c.fs, appFiles[i], vfs.O_WRONLY, c.buf[:blockSize])
		fs.gen = gen
		if err != nil {
			fs.loose = true
		} else {
			wbytes = blockSize
		}
		fs.mu.Unlock()
	case opCreate:
		c.tmp++
		tp := fmt.Sprintf("%s/tmp-c%d-%d", dirPaths[i/filesPerDir], c.id, c.tmp)
		fillBlock(c.buf, c.contentSeed, tp, 0, 0)
		err = writeAt(c.fs, mounted(tp), vfs.O_WRONLY|vfs.O_CREAT|vfs.O_EXCL, c.buf[:blockSize])
		if err == nil {
			wbytes = blockSize
			err = c.fs.Unlink(mounted(tp))
		}
	}
	c.t.end(root)
	d := time.Since(start)
	st.op(d, err, wrong)
	if rbytes > 0 {
		st.read(int64(rbytes), d)
	}
	if wbytes > 0 {
		st.wrote(int64(wbytes), d)
	}
}

// listingOK reports whether a leaf directory lists all of its fixture
// files and nothing else but the clients' temporary files.
func listingOK(ents []vfs.DirEntry) bool {
	fixture := 0
	for _, e := range ents {
		switch {
		case strings.HasPrefix(e.Name, "tmp-c"):
		case len(e.Name) == 3 && e.Name[0] == 'f' && !e.IsDir:
			fixture++
		default:
			return false
		}
	}
	return fixture == filesPerDir
}

// ---- smallfile-dsfs ----

// smallMix is the Figure 4 style metadata-heavy mix, run on a DSFS
// without a client cache with uniform keys.
var smallMix = []mixEntry{{opStat, 40}, {opRead, 70}, {opReaddir, 80}, {opOverwrite, 95}, {opCreate, 100}}

func setupSmallfile(s *stack, dir string, cfg config) ([]client, error) {
	export := filepath.Join(dir, "export")
	if err := s.startServer(export, cfg.trace); err != nil {
		return nil, err
	}
	// Seed the shared namespace through a DSFS over the export itself,
	// using the same metadata directory and data server name as the
	// clients, so the clients find ordinary DSFS stubs and data files.
	local, err := vfs.NewLocalFS(export)
	if err != nil {
		return nil, err
	}
	seeder, err := abstraction.NewDSFS(local, "/meta", []abstraction.DataServer{{Name: "bench", FS: local, Dir: "/data"}},
		abstraction.Options{ClientID: "fixture"})
	if err != nil {
		return nil, err
	}
	buf := make([]byte, blockSize)
	contentSeed := uint64(mix(cfg.seed, 0))
	for _, d := range dirPaths {
		if err := vfs.MkdirAll(seeder, d, 0o755); err != nil {
			return nil, err
		}
	}
	for _, p := range filePaths {
		fillBlock(buf, contentSeed, p, 0, 0)
		if err := writeAt(seeder, p, vfs.O_WRONLY|vfs.O_CREAT|vfs.O_EXCL, buf); err != nil {
			return nil, fmt.Errorf("seeding %s: %w", p, err)
		}
	}
	files := make([]fileState, nFiles)
	var clients []client
	for id := 0; id < 2; id++ {
		c, err := s.dialClient()
		if err != nil {
			return nil, err
		}
		t := s.newTracer()
		cfs := layer(cfg.wrap(c), layerClient, t)
		dsfs, err := abstraction.NewDSFS(cfs, "/meta", []abstraction.DataServer{{Name: "bench", FS: cfs, Dir: "/data"}},
			abstraction.Options{ClientID: fmt.Sprintf("c%d", id)})
		if err != nil {
			return nil, err
		}
		app, err := s.mountAdapter(layer(dsfs, layerAbstraction, t), t)
		if err != nil {
			return nil, err
		}
		mc := &mixClient{base: newBase(app, t, cfg.seed, id, blockSize), id: id, mix: smallMix,
			size: blockSize, files: files, latest: true}
		mc.pick = func() int { return mc.rng.Intn(nFiles) }
		clients = append(clients, mc)
	}
	return clients, nil
}

// ---- cached-zipf ----

// zipfFileSize is the size of each cached-zipf file; the fixture is
// twice the cache's default page budget.
const zipfFileSize = 32 << 10

// zipfMix is the cache-heavy mix, run through adapter → cache.FS
// (default options) → each client's own chirp.Client with Zipf(s = 1.1)
// keys; its overwrites break the other client's leases.
var zipfMix = []mixEntry{{opStat, 40}, {opRead, 90}, {opOverwrite, 100}}

func setupZipf(s *stack, dir string, cfg config) ([]client, error) {
	export := filepath.Join(dir, "export")
	if err := s.startServer(export, cfg.trace); err != nil {
		return nil, err
	}
	local, err := vfs.NewLocalFS(export)
	if err != nil {
		return nil, err
	}
	contentSeed := uint64(mix(cfg.seed, 0))
	buf := make([]byte, zipfFileSize)
	for _, d := range dirPaths {
		if err := vfs.MkdirAll(local, d, 0o755); err != nil {
			return nil, err
		}
	}
	for _, p := range filePaths {
		for b := 0; b < zipfFileSize/blockSize; b++ {
			fillBlock(buf[b*blockSize:], contentSeed, p, 0, uint32(b))
		}
		if err := writeAt(local, p, vfs.O_WRONLY|vfs.O_CREAT|vfs.O_EXCL, buf); err != nil {
			return nil, fmt.Errorf("seeding %s: %w", p, err)
		}
	}
	// The popularity ranks map to files through a seeded permutation,
	// so the hot set is spread over the tree.
	perm := rand.New(rand.NewSource(mix(cfg.seed, 100))).Perm(nFiles)
	files := make([]fileState, nFiles)
	var clients []client
	for id := 0; id < 2; id++ {
		c, err := s.dialClient()
		if err != nil {
			return nil, err
		}
		t := s.newTracer()
		cf := cache.New(layer(cfg.wrap(c), layerClient, t), cache.Options{})
		s.caches = append(s.caches, cf)
		app, err := s.mountAdapter(layer(cf, layerCache, t), t)
		if err != nil {
			return nil, err
		}
		b := newBase(app, t, cfg.seed, id, zipfFileSize)
		zipf := rand.NewZipf(b.rng, 1.1, 1, nFiles-1)
		clients = append(clients, &mixClient{base: b, id: id, mix: zipfMix,
			pick: func() int { return perm[zipf.Uint64()] }, size: zipfFileSize, files: files})
	}
	return clients, nil
}

// ---- bulk-cfs ----

const (
	bulkSize  = 64 << 20
	bulkIO    = 1 << 20
	bulkDst   = "/bulk.dat"
	bulkNSrcs = 2
)

// bulkClient alternates between two seeded 64 MiB sources: each
// iteration puts one with vfs.Copy (multipart, 2 workers, composed
// crc32c verification) through the pool, then reads it back through
// adapter → CFS → pool in 1 MiB preads and checks its crc32c, so a put
// that silently kept the previous content fails the check.
type bulkClient struct {
	base
	dst    vfs.FileSystem
	src    vfs.FileSystem
	srcCRC [bulkNSrcs]uint32
	iter   int
}

func setupBulk(s *stack, dir string, cfg config) ([]client, error) {
	if err := s.startServer(filepath.Join(dir, "export"), cfg.trace); err != nil {
		return nil, err
	}
	srcDir := filepath.Join(dir, "src")
	if err := os.MkdirAll(srcDir, 0o755); err != nil {
		return nil, err
	}
	src, err := vfs.NewLocalFS(srcDir)
	if err != nil {
		return nil, err
	}
	bc := &bulkClient{src: src}
	buf := make([]byte, bulkIO)
	for k := 0; k < bulkNSrcs; k++ {
		f, err := src.Open(srcName(k), vfs.O_WRONLY|vfs.O_CREAT|vfs.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		seed := uint64(mix(cfg.seed, uint64(1000+k)))
		var crc uint32
		for off := 0; off < bulkSize && err == nil; off += bulkIO {
			fillRandom(buf, seed+uint64(off))
			crc = vfs.CRC32C(crc, buf)
			err = vfs.WriteAll(f, buf, int64(off))
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		bc.srcCRC[k] = crc
	}
	p, err := s.dialPool(2)
	if err != nil {
		return nil, err
	}
	t := s.newTracer()
	// Only the read path goes through wrap: the copy engine's writes
	// must not pass a fault injector that would then serve the file
	// back clean.
	rfs := layer(cfg.wrap(p), layerClient, t)
	app, err := s.mountAdapter(layer(abstraction.NewCFS("bench", rfs), layerAbstraction, t), t)
	if err != nil {
		return nil, err
	}
	bc.base = newBase(app, t, cfg.seed, 0, bulkIO)
	bc.dst = layer(p, layerClient, t)
	return []client{bc}, nil
}

func srcName(k int) string { return fmt.Sprintf("/src%d", k) }

func (c *bulkClient) step(st *phaseStats) {
	k := c.iter % bulkNSrcs
	c.iter++

	start := time.Now()
	root := c.t.root(opPut)
	id := c.t.begin(layerCopy, opCopy, true)
	n, err := vfs.Copy(context.Background(), vfs.Loc{FS: c.dst, Path: bulkDst}, vfs.Loc{FS: c.src, Path: srcName(k)},
		vfs.CopyOptions{Concurrency: 2, Verify: true})
	c.t.end(id)
	c.t.end(root)
	st.attempted++
	if err != nil {
		st.failed++
		return
	}
	st.wrote(n, time.Since(start))

	// Read back: every adapter call is one timed operation.
	start = time.Now()
	root = c.t.root(opRead)
	defer c.t.end(root)
	t0 := time.Now()
	f, err := c.fs.Open(mounted(bulkDst), vfs.O_RDONLY, 0)
	st.op(time.Since(t0), err, false)
	if err != nil {
		return
	}
	var crc uint32
	var total int64
	readOK := true
	for off := int64(0); off < bulkSize; off += bulkIO {
		t0 = time.Now()
		got, err := f.Pread(c.buf, off)
		st.op(time.Since(t0), err, false)
		if err != nil {
			readOK = false
			break
		}
		crc = vfs.CRC32C(crc, c.buf[:got])
		total += int64(got)
		if got < bulkIO {
			break
		}
	}
	t0 = time.Now()
	err = f.Close()
	// With every call successful, the bytes must be the source's, in
	// full; anything else is a wrong read, charged to the close.
	wrong := readOK && err == nil && (total != bulkSize || crc != c.srcCRC[k])
	st.op(time.Since(t0), err, wrong)
	st.read(total, time.Since(start))
}
