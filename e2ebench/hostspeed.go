package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host-speed calibration. A shared 2-vCPU host runs the same work
// 20–30% faster or slower from one minute to the next, in CPU time as
// much as in wall time, so a run's timings would mostly measure the
// host's mood. Each run therefore interleaves short probes with its ops
// — before the set-up, between segments of the op list, and after the
// last op, always while the processes under test are idle — and
// divides every reported time by the host factor it measures. A probe
// is a fresh copy of this program (started with probeEnv set) that
// times two fixed kernels, one copy per CPU: a sort of a cache-resident
// buffer (compute and branches) and a churn of short-lived allocations
// (allocator, garbage collector and memory traffic). Together they
// track the slowdown the workloads see far better than either alone:
// on 2 vCPUs of an Intel Xeon at 2.0 GHz, one Figure 2 panel repeated
// 30 times had a quartile spread of 0.22 of its median raw, 0.14 when
// divided by either kernel's time, and 0.075 when divided by the
// geometric mean of both. The host factor is that geometric mean, over
// the two kernels, of the run's median batch time over its reference.
// The probe runs in its own process, on its own small heap, so no
// state of the code under test reaches it — not even in paper-fig2,
// whose sweeps run inside the benchmark process: a program change
// cannot move the probe, and moves the normalized times as much as the
// raw ones, while a slow minute of the host moves both the probe and
// the ops, and cancels out. The raw times, the factor and every batch
// are printed on standard error. A program that burns CPU while idle
// would still slow the probes and read faster; cpu_ms_per_op, taken
// over the whole pass, shows that.

// The reference batch times are the kernels' medians, in probe
// processes, on the host the bounds were fixed on (2 vCPUs of an Intel
// Xeon at 2.0 GHz, Go 1.24), so normalized times read as times on that
// host.
const (
	refSortBatch  = 104 * time.Millisecond
	refAllocBatch = 112 * time.Millisecond
)

// probeBatches is how many timed batches of each kernel one probe
// takes; sortCalls and allocCalls are a batch's kernel calls per CPU,
// about 100 ms each. A single batch reads up to 20% off, so each
// kernel's time is the median over every batch of the run.
const (
	probeBatches = 3
	sortCalls    = 50
	allocCalls   = 200
)

// probeSegments is how many segments a daemon workload's op list is
// split into, to probe the host between them.
const probeSegments = 8

// probeEnv, when set in its environment, makes this program run one
// probe and print its batch times instead of a benchmark run.
const probeEnv = "E2EBENCH_PROBE"

// speedMeter collects a run's probes. A nil meter probes nothing. The
// first probe that fails is kept in err and ends the probing.
type speedMeter struct {
	sortNs, allocNs []float64 // batch times
	err             error
}

// probeTimes is one probe's batch times in nanoseconds, as a probe
// process prints them.
type probeTimes struct {
	Sort  []float64 `json:"sort"`
	Alloc []float64 `json:"alloc"`
}

// sortKernel fills buf with xorshift values and sorts it.
func sortKernel(buf []float64, seed uint64) float64 {
	x := seed | 1
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = float64(x>>11) / (1 << 53)
	}
	sort.Float64s(buf)
	return buf[len(buf)/2]
}

type probeNode struct {
	next *probeNode
	v    [6]float64
}

// allocKernel builds short linked lists and slices of mixed sizes,
// walks them and drops them.
func allocKernel(seed uint64) float64 {
	x := seed | 1
	s := 0.0
	var head *probeNode
	for i := 0; i < 4000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := &probeNode{next: head}
		n.v[i%6] = float64(x>>11) / (1 << 53)
		head = n
		if i%64 == 63 {
			b := make([]float64, 64+int(x%1024))
			for j := range b {
				b[j] = float64(j) * n.v[i%6]
			}
			s += b[len(b)-1]
			for p := head; p != nil; p = p.next {
				s += p.v[0]
			}
			head = nil
		}
	}
	return s
}

// timeBatch runs work(cpu) on one goroutine per CPU and returns the
// wall time in nanoseconds.
func timeBatch(work func(cpu int)) float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			work(c)
		}(c)
	}
	wg.Wait()
	return float64(time.Since(t0))
}

// probe runs one probe process and records its batches.
func (m *speedMeter) probe() {
	if m == nil || m.err != nil {
		return
	}
	self, err := os.Executable()
	if err != nil {
		m.err = fmt.Errorf("host probe: %w", err)
		return
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), probeEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		m.err = fmt.Errorf("host probe: %w", err)
		return
	}
	var pt probeTimes
	if err := json.Unmarshal(out, &pt); err != nil || len(pt.Sort) != probeBatches || len(pt.Alloc) != probeBatches {
		m.err = fmt.Errorf("host probe: bad output %q", out)
		return
	}
	m.sortNs = append(m.sortNs, pt.Sort...)
	m.allocNs = append(m.allocNs, pt.Alloc...)
}

// runProbe is a probe process: it times probeBatches batches of each
// kernel, after one untimed call of each per CPU, and prints the batch
// times as JSON.
func runProbe(w io.Writer) int {
	bufs := make([][]float64, runtime.NumCPU())
	for c := range bufs {
		bufs[c] = make([]float64, 1<<14)
	}
	sums := make([]float64, runtime.NumCPU()) // keeps the kernels' results live
	timeBatch(func(c int) { sums[c] += sortKernel(bufs[c], 0) + allocKernel(0) })
	var pt probeTimes
	for b := 0; b < probeBatches; b++ {
		pt.Sort = append(pt.Sort, timeBatch(func(c int) {
			for k := 0; k < sortCalls; k++ {
				sums[c] += sortKernel(bufs[c], uint64(k))
			}
		}))
		pt.Alloc = append(pt.Alloc, timeBatch(func(c int) {
			for k := 0; k < allocCalls; k++ {
				sums[c] += allocKernel(uint64(k))
			}
		}))
	}
	if err := json.NewEncoder(w).Encode(pt); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: probe:", err)
		return 1
	}
	return 0
}

// factor is the run's host factor: above 1 when the host ran slower
// than the reference.
func (m *speedMeter) factor() float64 {
	if m == nil || len(m.sortNs) == 0 {
		return 1
	}
	return math.Sqrt(median(m.sortNs) / float64(refSortBatch) * median(m.allocNs) / float64(refAllocBatch))
}

// report prints the probes on standard error.
func (m *speedMeter) report() {
	fmt.Fprintf(os.Stderr, "e2ebench: host factor %.4f (median batch: sort %.1f ms, alloc %.1f ms; references %v, %v)\n",
		m.factor(), median(m.sortNs)/1e6, median(m.allocNs)/1e6, refSortBatch, refAllocBatch)
	for _, k := range []struct {
		name string
		ns   []float64
	}{{"sort", m.sortNs}, {"alloc", m.allocNs}} {
		fmt.Fprintf(os.Stderr, "e2ebench: %s batches (ms):", k.name)
		for _, b := range k.ns {
			fmt.Fprintf(os.Stderr, " %.1f", b/1e6)
		}
		fmt.Fprintln(os.Stderr)
	}
}
