// Command perfbench is the repository's benchmark. It assembles the
// real storage stack in one process — chirp servers on loopback TCP,
// the adapter (trap emulator off), the abstractions, the client cache,
// the chirp client and pool, and the multipart copy engine — runs one
// named closed-loop workload against it, checks every byte read, and
// prints its metrics. See README.md for the workloads and metrics.
//
//	perfbench --workload smallfile-dsfs --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer ones,
// from a run whose first half runs the untraced stack and whose second
// half runs a traced stack of its own that records spans.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"tss/internal/vfs"
)

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	dir       string        // scratch directory for exports and spans
	setupReps int           // set-ups timed; setup_s is their median
	warmup    time.Duration // untimed closed loop before measuring
	// wrap is inserted directly above every chirp client or pool; the
	// benchmark's own tests use it to inject faults under the stack.
	wrap func(vfs.FileSystem) vfs.FileSystem
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{dir: filepath.Join(".bench_build", "run"), setupReps: 7, warmup: time.Second}
	var trace int
	fl.StringVar(&cfg.workload, "workload", "", "workload name: smallfile-dsfs, bulk-cfs or cached-zipf")
	fl.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fl.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fl.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	res, err := runBench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong bytes read")
		return 1
	}
	return 0
}

// setupOnce times one complete set-up in a fresh directory under
// runDir: the export, the server, the fixture, and the clients' stacks.
// The checkout's filesystem is flushed before the clock starts and
// again after it stops, so neither the write-back that earlier set-ups
// and runs left behind nor that of this fixture falls into a timed
// stretch.
func setupOnce(wl workload, cfg config, runDir string, rep int) (*stack, []client, float64, error) {
	dir := filepath.Join(runDir, fmt.Sprintf("setup%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	s := &stack{dir: dir}
	syscall.Sync()
	start := time.Now()
	clients, err := wl.setup(s, dir, cfg)
	secs := time.Since(start).Seconds()
	syscall.Sync()
	if err != nil {
		s.close()
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return s, clients, secs, nil
}

func runBench(cfg config, w io.Writer) (result, error) {
	var wl workload
	for _, x := range workloads {
		if x.name == cfg.workload {
			wl = x
		}
	}
	if wl.setup == nil {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return result{}, errors.New("--seconds must be positive")
	}
	if cfg.wrap == nil {
		cfg.wrap = func(fs vfs.FileSystem) vfs.FileSystem { return fs }
	}
	if err := os.RemoveAll(cfg.dir); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(cfg.dir)
	// Every set-up of the run lives in one directory, placed in a fresh
	// block group and named for the process so no two runs share a
	// name, and nothing in it is removed before the run ends (see
	// spreadDirs).
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return result{}, err
	}
	spreadDirs(cfg.dir)
	runDir := filepath.Join(cfg.dir, fmt.Sprint(os.Getpid()))
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)

	// The first stack is always the untraced one a tss client
	// assembles: the measured stack, or the traced run's baseline.
	plain := cfg
	plain.trace = false
	s, clients, secs, err := setupOnce(wl, plain, runDir, 0)
	if err != nil {
		return result{}, err
	}
	setups := []float64{secs}
	fstype := fsType(s.dir)
	dur := time.Duration(cfg.seconds * float64(time.Second))

	total := runPhase(s, clients, cfg.warmup)
	// Hand what set-up and warm-up left behind back to the kernel, so
	// the peak resident set starts from the same floor in every run.
	debug.FreeOSMemory()
	res := result{Metrics: map[string]metric{}}
	var measured, baseline phase
	var sorted []int64
	if cfg.trace {
		baseline = runPhase(s, clients, dur/2)
		total.merge(&baseline.phaseStats)
	} else {
		stop := make(chan struct{})
		peaks := watchRSS(time.Second, stop)
		measured = runPhase(s, clients, dur)
		close(stop)
		sorted = endToEnd(res.Metrics, &measured, median(<-peaks))
		total.merge(&measured.phaseStats)
	}
	maxInflight := s.wire.maxInflight.Load()
	s.close()

	if cfg.trace {
		// The traced half runs on a stack of its own, set up with the
		// registries attached and every layer wrapped.
		s, clients, _, err = setupOnce(wl, cfg, runDir, 1)
		if err != nil {
			return result{}, err
		}
		warm := runPhase(s, clients, cfg.warmup)
		total.merge(&warm.phaseStats)
		s.setTracing(true)
		measured = runPhase(s, clients, dur/2)
		s.setTracing(false)
		total.merge(&measured.phaseStats)
		maxInflight = max(maxInflight, s.wire.maxInflight.Load())
		err = perLayer(res.Metrics, s, &baseline, &measured, filepath.Join(filepath.Dir(cfg.dir), "spans-"+cfg.workload+".tsv"))
		s.close()
		if err != nil {
			return result{}, err
		}
	} else {
		// The remaining set-ups follow the measurement, so they cannot
		// disturb it.
		for rep := 1; rep < cfg.setupReps; rep++ {
			s, _, secs, err := setupOnce(wl, cfg, runDir, rep)
			if err != nil {
				return result{}, err
			}
			s.close()
			setups = append(setups, secs)
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	}

	host := map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"kernel":       kernel(),
		"export_fs":    fstype,
		"transport":    "loopback TCP",
		"max_inflight": maxInflight,
	}
	hj, _ := json.Marshal(host)
	fmt.Fprintf(w, "host %s\n", hj)
	if !cfg.trace {
		fmt.Fprintf(w, "setup_s runs %v\n", setups)
	}
	fmt.Fprintf(w, "ops %d in %.3fs (measured), attempted %d, failed %d, wrong reads %d, fail_ratio %g\n",
		len(measured.lat), measured.elapsed.Seconds(), total.attempted, total.failed, total.wrong,
		ratio(float64(total.failed), total.attempted))
	if sorted != nil {
		// p99 is printed for reading but not reported in the JSON: its
		// run-to-run spread on a shared host exceeds any bound the
		// benchmark may set (see README.md).
		fmt.Fprintf(w, "p99_us %.4f us over %d operations (%d beyond)\n",
			float64(quantile(sorted, 0.99))/1e3, len(sorted), len(sorted)-int(0.99*float64(len(sorted))+0.5))
	}
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	res.Correct = total.wrong == 0
	res.Attempted = total.attempted
	res.Failed = total.failed
	if maxInflight > int64(runtime.NumCPU()) {
		return res, fmt.Errorf("measured %d requests in flight on %d CPUs", maxInflight, runtime.NumCPU())
	}
	return res, nil
}

// endToEnd fills the metrics a user of the stack sees.
func endToEnd(m map[string]metric, p *phase, rssMB float64) (lat []int64) {
	lat = sortedCopy(p.lat)
	m["ops_per_s"] = metric{float64(len(lat)) / p.elapsed.Seconds(), "1/s"}
	m["p50_us"] = metric{float64(quantile(lat, 0.50)) / 1e3, "us"}
	m["p95_us"] = metric{float64(quantile(lat, 0.95)) / 1e3, "us"}
	m["put_mb_per_s"] = metric{bandwidth(p.writeBytes, p.writes), "MiB/s"}
	m["read_mb_per_s"] = metric{bandwidth(p.readBytes, p.reads), "MiB/s"}
	m["rss_peak_mb"] = metric{rssMB, "MiB"}
	return lat
}

// perLayer fills the per-layer metrics: process costs from phase a on
// the untraced stack, everything else from the traced phase b.
func perLayer(m map[string]metric, s *stack, a, b *phase, spansPath string) error {
	ops := int64(len(b.lat))
	perOp := func(x int64) float64 { return ratio(float64(x), ops) }
	b0, b1 := b.before, b.after

	// Process: the untraced stack, so neither span recording nor the
	// registries are counted.
	aOps := int64(len(a.lat))
	m["process.cpu_us_per_op"] = metric{ratio(float64(a.after.cpuNS-a.before.cpuNS)/1e3, aOps), "us"}
	m["process.allocs_per_op"] = metric{ratio(float64(a.after.mallocs-a.before.mallocs), aOps), "count"}
	m["process.alloc_bytes_per_op"] = metric{ratio(float64(a.after.allocBytes-a.before.allocBytes), aOps), "B"}
	m["process.gc_per_s"] = metric{float64(a.after.numGC-a.before.numGC) / a.elapsed.Seconds(), "1/s"}
	rateA := float64(aOps) / a.elapsed.Seconds()
	rateB := float64(ops) / b.elapsed.Seconds()
	m["trace.overhead_pct"] = metric{(rateA/rateB - 1) * 100, "%"}

	// chirp server: handler times are exact means from the registry.
	const srvP, cliP = "chirp_server.rpc.", "chirp_client.rpc."
	rpcs, cliNS := rpcDelta(b0.creg, b1.creg, cliP)
	_, srvNS := rpcDelta(b0.sreg, b1.sreg, srvP)
	m["chirp_server.requests_per_rpc"] = metric{ratio(float64(b1.requests-b0.requests), rpcs), "count"}
	for _, v := range []string{"stat", "open", "pread", "pwrite", "getdir", "getfile", "lease"} {
		m["chirp_server."+v+"_us"] = metric{meanRPCUS(b0.sreg, b1.sreg, srvP, v), "us"}
	}
	m["chirp_server.lease_grants_per_op"] = metric{perOp(b1.leaseGrants - b0.leaseGrants), "count"}
	m["chirp_server.lease_breaks_per_op"] = metric{perOp(b1.leaseBreaks - b0.leaseBreaks), "count"}
	m["chirp_server.shed_per_op"] = metric{perOp(b1.shed - b0.shed), "count"}

	// Wire: the client's round trip minus the server's handler time is
	// time spent in framing, the kernel, and scheduling.
	m["wire.bytes_per_rpc"] = metric{ratio(float64(b1.wireBytes-b0.wireBytes), rpcs), "B"}
	m["wire.writes_per_rpc"] = metric{ratio(float64(b1.wireWrites-b0.wireWrites), rpcs), "count"}
	m["wire.wait_us"] = metric{ratio(float64(cliNS-srvNS)/1e3, rpcs), "us"}

	// chirp client and pool: exact round-trip means per verb.
	for _, v := range []string{"stat", "open", "pread", "pwrite", "close", "getdir", "getfile", "lease"} {
		m["chirp_client."+v+"_us"] = metric{meanRPCUS(b0.creg, b1.creg, cliP, v), "us"}
	}
	m["chirp_client.part_us"] = metric{meanRPCUS(b0.creg, b1.creg, cliP, "putpart", "getpart"), "us"}
	m["chirp_client.rpcs_per_op"] = metric{perOp(rpcs), "count"}

	// Span-derived: calls, durations, and self times per layer.
	var ls layerStats
	for _, t := range s.tracers {
		ls.add(t.spans)
	}
	m["abstraction.rpcs_per_op"] = metric{perOp(ls.down[layerAbstraction]), "count"}
	m["abstraction.self_us"] = metric{ls.selfUS(layerAbstraction), "us"}

	hits, misses := b1.attrHits-b0.attrHits, b1.attrMisses-b0.attrMisses
	m["cache.attr_hit_ratio"] = metric{ratio(float64(hits), hits+misses), "ratio"}
	hits, misses = b1.pageHits-b0.pageHits, b1.pageMisses-b0.pageMisses
	m["cache.page_hit_ratio"] = metric{ratio(float64(hits), hits+misses), "ratio"}
	m["cache.rpcs_per_op"] = metric{perOp(ls.down[layerCache]), "count"}
	m["cache.renewals_per_op"] = metric{perOp(b1.renewals - b0.renewals), "count"}
	m["cache.invalidations_per_op"] = metric{perOp(b1.invalidations - b0.invalidations), "count"}
	m["cache.flushes_per_op"] = metric{perOp(b1.flushes - b0.flushes), "count"}
	m["cache.self_us"] = metric{ls.selfUS(layerCache), "us"}

	for _, o := range []struct {
		name string
		op   uint8
	}{{"stat", opStat}, {"open", opOpen}, {"pread", opPread}, {"pwrite", opPwrite}, {"close", opClose}, {"readdir", opReaddir}} {
		m["adapter."+o.name+"_us"] = metric{ls.meanUS(layerAdapter, o.op), "us"}
	}
	m["adapter.self_us"] = metric{ls.selfUS(layerAdapter), "us"}
	m["adapter.retries_per_op"] = metric{perOp(b1.retries - b0.retries), "count"}

	m["vfs_copy.file_ms"] = metric{ls.meanUS(layerCopy, opCopy) / 1e3, "ms"}
	m["vfs_copy.chunk_ms"] = metric{ls.meanUS(layerClient, opPart) / 1e3, "ms"}
	m["vfs_copy.self_ms"] = metric{ls.selfUS(layerCopy) / 1e3, "ms"}

	err := writeSpans(spansPath, s.tracers)
	for _, t := range s.tracers {
		t.spans = nil
	}
	return err
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// Directory flag ioctls, as on 64-bit Linux.
const (
	fsIocGetflags = 0x80086601
	fsIocSetflags = 0x40086602
	fsTopdirFl    = 0x00020000
)

// spreadDirs marks dir as the top of a directory hierarchy, so ext4
// places each directory made in it in a block group of its own instead
// of beside dir. Without a journal, ext4 avoids reusing an inode for a
// minute or more after it is freed, and every allocation in the group
// scans past all such inodes: a set-up whose export lands in a group a
// recent removal emptied creates its files ten times slower, and so
// does the measured phase on it. A run therefore frees inodes only at
// its end, and the next run starts in another group. Filesystems
// without the flag ignore it.
func spreadDirs(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags uint32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetflags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return
	}
	flags |= fsTopdirFl
	syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetflags, uintptr(unsafe.Pointer(&flags)))
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
