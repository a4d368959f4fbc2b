package main

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tss/internal/obs"
)

// phaseStats is what one client recorded during one phase.
type phaseStats struct {
	lat       []int64 // ns per counted operation
	attempted int64
	failed    int64
	wrong     int64
	// Bytes moved by reading and writing operations, and the duration
	// of each such operation.
	readBytes, writeBytes int64
	reads, writes         []int64
}

// op records one counted operation.
func (st *phaseStats) op(d time.Duration, err error, wrong bool) {
	st.lat = append(st.lat, int64(d))
	st.attempted++
	switch {
	case wrong:
		st.wrong++
		st.failed++
	case err != nil:
		st.failed++
	}
}

// read records an operation that read n bytes in d.
func (st *phaseStats) read(n int64, d time.Duration) {
	st.readBytes += n
	st.reads = append(st.reads, int64(d))
}

// wrote records an operation that wrote n bytes in d.
func (st *phaseStats) wrote(n int64, d time.Duration) {
	st.writeBytes += n
	st.writes = append(st.writes, int64(d))
}

// bandwidth is a typical operation's bandwidth in MiB/s: the mean
// bytes per operation over the median operation duration, which a few
// stalled operations cannot drag down the way they drag down a mean.
func bandwidth(bytes int64, durs []int64) float64 {
	if len(durs) == 0 {
		return 0
	}
	med := quantile(sortedCopy(durs), 0.5)
	return float64(bytes) / float64(len(durs)) / (1 << 20) / (float64(med) / 1e9)
}

func (st *phaseStats) merge(o *phaseStats) {
	st.lat = append(st.lat, o.lat...)
	st.attempted += o.attempted
	st.failed += o.failed
	st.wrong += o.wrong
	st.readBytes += o.readBytes
	st.reads = append(st.reads, o.reads...)
	st.writeBytes += o.writeBytes
	st.writes = append(st.writes, o.writes...)
}

// phase is one timed stretch of the closed loop.
type phase struct {
	phaseStats
	elapsed time.Duration
	before  counters
	after   counters
}

// runPhase runs every client's closed loop for d and merges what they
// recorded. A client stops at the first request it would begin after
// d; the phase lasts until the last one returns.
func runPhase(s *stack, clients []client, d time.Duration) phase {
	var p phase
	per := make([]phaseStats, len(clients))
	p.before = s.snap()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c client, st *phaseStats) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.step(st)
			}
		}(c, &per[i])
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.after = s.snap()
	for i := range per {
		p.merge(&per[i])
	}
	return p
}

// counters is a snapshot of every cumulative count the benchmark reads
// from the program and the process.
type counters struct {
	requests, leaseGrants, leaseBreaks, shed int64
	attrHits, attrMisses                     int64
	pageHits, pageMisses                     int64
	renewals, invalidations, flushes         int64
	retries                                  int64
	wireBytes, wireWrites                    int64
	sreg, creg                               obs.Snapshot
	cpuNS                                    int64
	mallocs, allocBytes                      uint64
	numGC                                    uint32
}

func (s *stack) snap() counters {
	var c counters
	st := &s.srv.Stats
	c.requests = st.Requests.Load()
	c.leaseGrants = st.LeaseGrants.Load()
	c.leaseBreaks = st.LeaseBreaks.Load()
	c.shed = st.Shed.Load()
	for _, cf := range s.caches {
		cs := cf.Stats()
		c.attrHits += cs.AttrHits
		c.attrMisses += cs.AttrMisses
		c.pageHits += cs.PageHits
		c.pageMisses += cs.PageMisses
		c.renewals += cs.Renewals
		c.invalidations += cs.Invalidations
		c.flushes += cs.Flushes
	}
	for _, a := range s.adapters {
		c.retries += a.Stats.Retries.Load()
	}
	c.wireBytes = s.wire.bytes.Load()
	c.wireWrites = s.wire.writes.Load()
	if s.sreg != nil {
		c.sreg, c.creg = s.sreg.Snapshot(), s.creg.Snapshot()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	return c
}

// rpcDelta sums count and time of the registry histograms named
// prefix+verb over the phase, for the given verbs (all when none).
func rpcDelta(before, after obs.Snapshot, prefix string, verbs ...string) (count, sumNS int64) {
	for name, h := range after.Histograms {
		v, ok := strings.CutPrefix(name, prefix)
		if !ok || (len(verbs) > 0 && !slices.Contains(verbs, v)) {
			continue
		}
		b := before.Histograms[name]
		count += h.Count - b.Count
		sumNS += h.SumNS - b.SumNS
	}
	return count, sumNS
}

// meanRPCUS is the exact mean of the named verbs' handler or round-trip
// time over the phase, in microseconds.
func meanRPCUS(before, after obs.Snapshot, prefix string, verbs ...string) float64 {
	n, sum := rpcDelta(before, after, prefix, verbs...)
	return ratio(float64(sum)/1e3, n)
}

func ratio(x float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// watchRSS records the peak resident set of each window until stop is
// closed, restarting the kernel's record at the start of every window,
// and then sends the peaks; the last covers the final partial window.
// The Go collector's timing moves a single peak over a whole phase by
// a sixth from run to run; the median window peak is steadier.
func watchRSS(window time.Duration, stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	resetPeakRSS()
	go func() {
		var peaks []float64
		tick := time.NewTicker(window)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peaks = append(peaks, readPeakRSS())
				resetPeakRSS()
			case <-stop:
				out <- append(peaks, readPeakRSS())
				return
			}
		}
	}()
	return out
}

// resetPeakRSS restarts the kernel's peak-RSS record, so the next
// readPeakRSS covers only what follows.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// readPeakRSS returns VmHWM in MiB.
func readPeakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
