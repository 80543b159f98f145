// Command e2ebench is the repository's end-to-end benchmark. It runs
// one named workload against the real stack — budgetwfd daemons
// started as subprocesses, or internal/exp called in process — checks
// every operation's output, and prints one JSON result line.
//
// Workloads:
//
//	schedule-mix  2 closed-loop clients POST /v1/schedule to one
//	              budgetwfd -workers 2: misses, byte-identical repeats
//	              and relabelled repeats of Montage/CyberShake/LIGO
//	              workflows at n ∈ {30, 50, 100, 300}, cheap planners
//	              only, with a 1 Hz Prometheus scrape alongside.
//	paper-fig2    in-process exp.RunSweep panels of the paper's
//	              Figure 2 (heft, heftbudg, heftbudg+, heftbudg+inv) at
//	              n = 90, σ/w̄ = 0.5, 25 replications, 8 budget levels.
//	sweep-jobs    1 closed-loop client submits async jobs (MC,
//	              analytic, fault and spot-market sweeps) to a
//	              journalled coordinator with one shard worker.
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1
// the benchmark instead runs the workload's inputs once untraced and
// once traced, replays a sample of them through each module's public
// functions under its own spans, prints the per-layer table on
// standard error and reports the per-layer metrics.
//
// The inputs are a pure function of -seed (and -seconds, which sizes
// the op list); the quality metrics are computed over that fixed op
// list, so they repeat exactly for a seed. Every reported time is
// divided by the run's host factor, measured by probes interleaved with
// the ops (hostspeed.go). Run it through run.sh, which builds the
// binaries first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds float64
	daemon  string // budgetwfd binary
	work    string // this run's scratch directory
	smoke   bool   // tiny sizes, for the self-test
}

// workload runs one named benchmark case.
type workload struct {
	name  string
	run   func(cfg config) (*outcome, error)
	trace func(cfg config) (*layerReport, error)
}

var workloads = []workload{
	{name: "schedule-mix", run: runScheduleMix, trace: traceScheduleMix},
	{name: "paper-fig2", run: runPaperFig2, trace: tracePaperFig2},
	{name: "sweep-jobs", run: runSweepJobs, trace: traceSweepJobs},
}

func main() {
	if os.Getenv(probeEnv) != "" {
		os.Exit(runProbe(os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one benchmark run and returns the exit code; the result
// line goes to stdout.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: schedule-mix, paper-fig2 or sweep-jobs")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "target measured duration; sizes the op list")
	trace := fs.Int("trace", 0, "1 = traced per-layer run instead of the measured run")
	daemonBin := fs.String("daemon", "", "budgetwfd binary (built by run.sh)")
	work := fs.String("work", ".bench_build", "directory for per-run scratch files")
	smoke := fs.Bool("smoke", false, "tiny sizes (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if _, err := os.Stat(*daemonBin); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: -daemon: %v\n", err)
		return 2
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	defer stopAll()
	// Stop the daemons on SIGINT/SIGTERM too.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sigc:
			stopAll()
			os.RemoveAll(dir)
			os.Exit(1)
		case <-done:
		}
	}()

	abs, _ := filepath.Abs(*daemonBin)
	cfg := config{seed: *seed, seconds: *seconds, daemon: abs, work: dir, smoke: *smoke}
	var res result
	if *trace == 1 {
		rep, err := wl.trace(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		rep.print(os.Stderr, wl.name)
		res = rep.result()
	} else {
		o, err := wl.run(cfg)
		if err == nil {
			err = o.meter.err
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		o.printFailures(os.Stderr)
		res = o.result()
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// op is one measured operation.
type op struct {
	latency time.Duration
	err     error // nil when the output check passed
}

// outcome is a measured run of a workload's fixed op list.
type outcome struct {
	setups []time.Duration // set-up repeated several times; the median is reported
	ops    []op
	wall   time.Duration // first op sent → last op done, host probes excluded
	cpu    time.Duration // user+sys of the processes under test during wall
	rssMB  float64       // their peak RSS (paper-fig2: each sweep's; the median sweep)
	meter  *speedMeter   // the run's host-speed probes
	// Quality over every op that passed its check: the geometric means
	// of realized makespan ÷ HEFT makespan and of realized cost ÷
	// budget, and the share of executions whose cost respected the
	// budget.
	quality qualitySum
}

// qualitySum accumulates the three schedule-quality metrics over
// points — one (plan, budget) pair and its executions each. The two
// ratios are averaged geometrically: a ratio's natural mean, and one
// that a few extreme points (a starved budget, a revoked spot run)
// cannot dominate, so the metric moves with the planners rather than
// with which instances a seed happens to draw.
type qualitySum struct {
	n           float64
	logMakespan float64
	logCost     float64
	met         float64
}

// add records one point: its mean realized makespan ÷ HEFT makespan,
// mean realized cost ÷ budget, and budget-respecting share of
// executions.
func (q *qualitySum) add(makespanNorm, costNorm, metFrac float64) {
	q.n++
	q.logMakespan += math.Log(makespanNorm)
	q.logCost += math.Log(costNorm)
	q.met += metFrac
}

func (q *qualitySum) merge(o qualitySum) {
	q.n += o.n
	q.logMakespan += o.logMakespan
	q.logCost += o.logCost
	q.met += o.met
}

func (o *outcome) failed() int {
	n := 0
	for _, op := range o.ops {
		if op.err != nil {
			n++
		}
	}
	return n
}

// onlyKnownFailures reports whether every failed op failed the way the
// known plan-cache defect fails (classD1). Any other failure — a
// transport error, a 429 or 5xx, an invalid plan for a first-seen
// request, an incomplete sweep — makes the run incorrect. The D1
// failures still count in failed and ok_ratio.
func (o *outcome) onlyKnownFailures() bool {
	for _, op := range o.ops {
		if op.err != nil && failureClass(op.err) != classD1 {
			return false
		}
	}
	return true
}

// printFailures summarizes failed ops by cause on standard error, with
// the host factor and the raw times.
func (o *outcome) printFailures(w *os.File) {
	causes := map[string]int{}
	for _, op := range o.ops {
		if op.err == nil {
			continue
		}
		if causes[failureClass(op.err)] == 0 {
			fmt.Fprintf(w, "e2ebench: first failure: %v\n", op.err)
		}
		causes[failureClass(op.err)]++
	}
	var keys []string
	for k := range causes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "e2ebench: %d ops, %d failed\n", len(o.ops), o.failed())
	for _, k := range keys {
		fmt.Fprintf(w, "  %6d  %s\n", causes[k], k)
	}
	if o.meter != nil {
		o.meter.report()
		fmt.Fprintf(w, "e2ebench: raw: %.4g ops/s, %.4g cpu ms/op, wall %v\n",
			float64(len(o.ops))/o.wall.Seconds(), ms(o.cpu)/float64(len(o.ops)), o.wall.Round(time.Millisecond))
	}
}

// checkError is an op whose output failed its check; class groups
// failures of one cause.
type checkError struct {
	class string
	err   error
}

func (e *checkError) Error() string { return e.class + ": " + e.err.Error() }

func failureClass(err error) string {
	if ce, ok := err.(*checkError); ok {
		return ce.class
	}
	return "error"
}

func checkf(class, format string, args ...any) error {
	return &checkError{class: class, err: fmt.Errorf(format, args...)}
}

// result renders the end-to-end metrics; every time is divided by the
// run's host factor (see hostspeed.go).
func (o *outcome) result() result {
	f := o.meter.factor()
	lat := make([]float64, len(o.ops))
	for i, op := range o.ops {
		lat[i] = ms(op.latency) / f
	}
	setups := make([]float64, len(o.setups))
	for i, s := range o.setups {
		setups[i] = s.Seconds() / f
	}
	n := float64(len(o.ops))
	failed := o.failed()
	q := o.quality
	if q.n == 0 {
		q.n = math.NaN()
	}
	return result{
		Correct:   q.n > 0 && o.onlyKnownFailures(),
		Attempted: len(o.ops),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"ok_ratio":         {(n - float64(failed)) / n, "ratio"},
			"ops_per_s":        {n / o.wall.Seconds() * f, "1/s"},
			"op_p50_ms":        {quantile(lat, 0.50), "ms"},
			"op_p95_ms":        {quantile(lat, 0.95), "ms"},
			"cpu_ms_per_op":    {ms(o.cpu) / n / f, "ms"},
			"max_rss_mb":       {o.rssMB, "MB"},
			"makespan_norm":    {math.Exp(q.logMakespan / q.n), "ratio"},
			"cost_norm":        {math.Exp(q.logCost / q.n), "ratio"},
			"budget_met_ratio": {q.met / q.n, "ratio"},
		},
	}
}

// logf writes one progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the linearly interpolated q-quantile of xs (the R-7
// definition); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
