package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"budgetwf/internal/exp"
	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

// The paper-fig2 workload: in-process exp.RunSweep calls, one op per
// sweep. Each sweep is one panel of the paper's Figure 2 for one
// generated instance: the four Figure 2 algorithms over 8 budget
// levels at n = 90, σ/w̄ = 0.5 and 25 Monte Carlo replications, with
// Workers = the machine's CPU count. The op list cycles through the
// three paper families, one fresh instance seed per op.

// fig2PanelSeconds sizes the op list from -seconds: one panel takes
// about this long on 2 cores today, probes included.
const fig2PanelSeconds = 4.5

// fig2Op is one sweep of the op list.
type fig2Op struct {
	sc      exp.Scenario
	anchors *exp.Anchors
}

// fig2Setup generates the instance list: every op's workflow instance
// and its budget anchors (the cheapest and the HEFT schedules).
func fig2Setup(seed uint64, ops int, smoke bool) ([]fig2Op, error) {
	fams := wfgen.AllPaperTypes()
	out := make([]fig2Op, ops)
	for k := range out {
		sc := exp.Scenario{
			Type:       fams[k%len(fams)],
			N:          90,
			SigmaRatio: 0.5,
			Instances:  1,
			Reps:       25,
			Workers:    runtime.NumCPU(),
			Seed:       seed<<8 | uint64(k),
		}
		if smoke {
			sc.N, sc.Reps = 30, 5
		}
		w, err := sc.Instance(0)
		if err != nil {
			return nil, err
		}
		a, err := exp.ComputeAnchors(w, platform.Default())
		if err != nil {
			return nil, err
		}
		out[k] = fig2Op{sc: sc, anchors: a}
	}
	return out, nil
}

// fig2Ops sizes the op list: the fewest whole family cycles that take
// at least -seconds (9 panels for a 30 s run).
func fig2Ops(cfg config) int {
	cycles := int(math.Ceil(cfg.seconds / (3 * fig2PanelSeconds)))
	if cycles < 1 || cfg.smoke {
		cycles = 1
	}
	return 3 * cycles
}

func fig2GridK(smoke bool) int {
	if smoke {
		return 3
	}
	return 8
}

// fig2Algorithms resolves the paper's Figure 2 algorithm set.
func fig2Algorithms() ([]sched.Algorithm, error) {
	names, err := exp.FigureAlgorithms(2)
	if err != nil {
		return nil, err
	}
	return algorithms(names)
}

// checkSweep is the output check of one sweep: the reference points and
// budget levels of the instance the set-up generated, one series per
// algorithm in order, gridK points each, every summary finite and over
// all executions, and every execution complete (no platform here sells
// spot capacity). It adds the sweep's points to the quality sums.
func checkSweep(res *exp.SweepResult, want *exp.Anchors, algs []sched.Algorithm, gridK int, q *qualitySum) error {
	execs := res.Scenario.Instances * res.Scenario.Reps
	if len(res.Series) != len(algs) {
		return checkf("incomplete sweep", "%d series, want %d", len(res.Series), len(algs))
	}
	if res.BaselineMakespan != want.BaselineMakespan || res.MinCostBudget != want.CheapCost {
		return checkf("wrong instance", "HEFT makespan %v, cheapest cost %v; the instance list has %v, %v",
			res.BaselineMakespan, res.MinCostBudget, want.BaselineMakespan, want.CheapCost)
	}
	if !finite(res.BaselineMakespan) || res.BaselineMakespan <= 0 {
		return checkf("bad sweep summary", "baseline makespan %v", res.BaselineMakespan)
	}
	var sum qualitySum
	factors := want.BudgetFactors(gridK)
	for i, s := range res.Series {
		if s.Algorithm != algs[i].Name {
			return checkf("incomplete sweep", "series %d is %s, want %s", i, s.Algorithm, algs[i].Name)
		}
		if len(s.Points) != gridK {
			return checkf("incomplete sweep", "%s: %d points, want %d", s.Algorithm, len(s.Points), gridK)
		}
		for b, p := range s.Points {
			switch {
			case p.Budget != factors[b]*want.CheapCost:
				return checkf("wrong instance", "%s: point %d budget %v; the instance list has %v", s.Algorithm, b, p.Budget, factors[b]*want.CheapCost)
			case p.Makespan.N != execs || p.Cost.N != execs:
				return checkf("incomplete sweep", "%s: %d executions, want %d", s.Algorithm, p.Makespan.N, execs)
			case !finite(p.Makespan.Mean, p.Makespan.StdDev, p.Cost.Mean, p.Cost.StdDev, p.NumVMs.Mean) ||
				p.Makespan.Mean <= 0 || p.Cost.Mean <= 0:
				return checkf("bad sweep summary", "%s: budget %v makespan %v cost %v", s.Algorithm, p.Budget, p.Makespan.Mean, p.Cost.Mean)
			case p.SuccessFrac != 1:
				return checkf("incomplete executions", "%s: successFrac %v off spot", s.Algorithm, p.SuccessFrac)
			case p.ValidFrac < 0 || p.ValidFrac > 1:
				return checkf("bad sweep summary", "%s: validFrac %v", s.Algorithm, p.ValidFrac)
			}
			sum.add(p.Makespan.Mean/res.BaselineMakespan, p.Cost.Mean/p.Budget, p.ValidFrac)
		}
	}
	q.merge(sum)
	return nil
}

// fig2Pass runs the sweeps of the op list in order. With m set, the
// host is probed before each sweep and after the last. Each sweep
// starts from a collected, scavenged heap, so its peak RSS — returned
// per sweep — is its own and not the garbage of the set-up or of the
// sweep before, and no garbage collection of this process runs beside
// a probe. wall is the summed sweep time.
func fig2Pass(list []fig2Op, algs []sched.Algorithm, gridK int, m *speedMeter, q *qualitySum) (ops []op, wall time.Duration, rssMB []float64, err error) {
	ops = make([]op, len(list))
	for i, o := range list {
		debug.FreeOSMemory()
		m.probe()
		if err := resetPeakRSS(); err != nil {
			return nil, 0, nil, err
		}
		t0 := time.Now()
		res, err := exp.RunSweep(o.sc, algs, gridK)
		ops[i].latency = time.Since(t0)
		wall += ops[i].latency
		rss, rerr := procPeakRSS(os.Getpid())
		if rerr != nil {
			return nil, 0, nil, fmt.Errorf("peak RSS: %w", rerr)
		}
		rssMB = append(rssMB, rss)
		if err != nil {
			ops[i].err = checkf("sweep error", "%v", err)
			continue
		}
		ops[i].err = checkSweep(res, o.anchors, algs, gridK, q)
	}
	debug.FreeOSMemory()
	m.probe()
	return ops, wall, rssMB, nil
}

// resetPeakRSS restarts this process's VmHWM count at its current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func runPaperFig2(cfg config) (*outcome, error) {
	algs, err := fig2Algorithms()
	if err != nil {
		return nil, err
	}
	o := &outcome{meter: &speedMeter{}}
	o.meter.probe()
	var list []fig2Op
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		list, err = fig2Setup(cfg.seed, fig2Ops(cfg), cfg.smoke)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0))
	}
	cpu0, err := selfCPU()
	if err != nil {
		return nil, err
	}
	var rss []float64
	o.ops, o.wall, rss, err = fig2Pass(list, algs, fig2GridK(cfg.smoke), o.meter, &o.quality)
	if err != nil {
		return nil, err
	}
	cpu1, err := selfCPU()
	if err != nil {
		return nil, err
	}
	o.cpu = cpu1 - cpu0
	o.rssMB = median(rss)
	logf("peak RSS per sweep (MB): %.1f", rss)
	return o, nil
}
