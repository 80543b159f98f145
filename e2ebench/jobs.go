package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"budgetwf/internal/exp"
	"budgetwf/internal/market"
	"budgetwf/internal/obs"
	"budgetwf/internal/platform"
	"budgetwf/internal/wfgen"
)

// The sweep-jobs workload: one closed-loop client submits POST /v1/jobs
// to a journalled coordinator (budgetwfd -journal <fresh dir> -peers
// <worker>) with one shard worker (budgetwfd -worker), polls until the
// job is done, checks its result, and moves to the next job. One op is
// one job, timed from submit to done. The jobs are a seed-fixed mix of
// plain Monte Carlo sweeps, analytic-estimator sweeps, fault sweeps and
// sweeps on a two-provider spot market, each with a distinct seed so
// the job store's dedupe never turns a job into a no-op.

const (
	// jobsPerSecond sizes the op list from -seconds.
	jobsPerSecond = 20.0
	// jobPoll is the status poll interval.
	jobPoll = 5 * time.Millisecond
)

// Job kinds of the mix; every block of four consecutive jobs holds one
// of each, in a shuffled order. The equal shares are an assumption, not
// a measured job mix: each sweep engine and executor path weighs the
// same.
const (
	jobMC = iota
	jobAnalytic
	jobFault
	jobSpot
	numJobKinds
)

// jobMarket is the spot market of the spot jobs: two providers, a
// revocable spot twin of the home provider's small category, and a
// priced link between the providers.
const jobMarket = `{
  "providers": [
    {"name": "home", "categories": [
      {"name": "small", "speed": 1e9, "costPerSec": 6.444e-6, "initCost": 0.0001,
       "spot": {"discount": 0.6, "revocationsPerHour": 1}},
      {"name": "large", "speed": 4e9, "costPerSec": 5.155e-5, "initCost": 0.0001}
    ]},
    {"name": "away", "categories": [
      {"name": "std", "speed": 2e9, "costPerSec": 1.823e-5, "initCost": 0.0001}
    ]}
  ],
  "transfer": [[{}, {"costPerGB": 0.02, "latencySec": 0.5}],
               [{"costPerGB": 0.02, "latencySec": 0.5}, {}]]
}`

var (
	jobAlgorithms = []string{"heftbudg", "minminbudg"}
	// Spot jobs plan with a spot-aware planner twin, as a client of a
	// spot market would. One planner, not two: spot schedules' makespans
	// vary most between instances, and a second series would double
	// their weight in the quality metrics.
	jobSpotAlgorithms = []string{"heftbudg-spot"}
	jobFaultRates     = []float64{0, 0.5, 2}
)

// jobFaultBudgetFactor is the fault sweeps' budget, as a multiple of
// the cheapest schedule's cost.
const jobFaultBudgetFactor = 1.5

// benchJob is one job of the op list.
type benchJob struct {
	kind      int
	algs      []string // sweep planners; fault sweeps plan with heftbudg
	typ       wfgen.Type
	n         int
	seed      uint64
	body      []byte
	instances int
	gridK     int
	reps      int
	// What the result must report for the generated instances: their
	// mean budget-blind HEFT makespan (fault sweep results do not carry
	// it), and every point's budget (a fault sweep's single budget).
	heftMakespan float64
	budgets      []float64
}

// setAnchors computes the job's expected HEFT makespan and budgets the
// way the sweep engines do: per instance the budget anchors on the
// job's platform, averaged over instances in instance order; a sweep's
// budget grid is the instances' factor grid that reaches highest.
func (j *benchJob) setAnchors(plat *platform.Platform) error {
	sc := exp.Scenario{Type: j.typ, N: j.n, SigmaRatio: 0.5, Instances: j.instances, Seed: j.seed}
	var anchors []*exp.Anchors
	var common []float64
	for k := 0; k < j.instances; k++ {
		w, err := sc.Instance(k)
		if err != nil {
			return err
		}
		a, err := exp.ComputeAnchors(w, plat)
		if err != nil {
			return err
		}
		anchors = append(anchors, a)
		j.heftMakespan += a.BaselineMakespan / float64(j.instances)
		if f := a.BudgetFactors(j.gridK); common == nil || f[j.gridK-1] > common[j.gridK-1] {
			common = f
		}
	}
	if j.kind == jobFault {
		b := 0.0
		for _, a := range anchors {
			b += jobFaultBudgetFactor * a.CheapCost / float64(j.instances)
		}
		j.budgets = []float64{b}
		return nil
	}
	j.budgets = make([]float64, j.gridK)
	for b := range j.budgets {
		sum := 0.0
		for _, a := range anchors {
			sum += common[b] * a.CheapCost
		}
		j.budgets[b] = sum / float64(j.instances)
	}
	return nil
}

// buildJobs derives the job list from the seed. Job kinds cycle in
// shuffled blocks of four, and workflow shapes — family and size — in
// shuffled blocks of all six, so every seed draws them in equal numbers.
func buildJobs(seed uint64, count int, smoke bool) ([]benchJob, error) {
	rnd := rand.New(rand.NewPCG(seed, 0x6a6f6273))
	spec, err := market.ParseSpecBytes([]byte(jobMarket))
	if err != nil {
		return nil, err
	}
	spot, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	fams := wfgen.AllPaperTypes()
	sizes := []int{50, 100}
	instances, reps, gridK := 2, 25, 8
	if smoke {
		sizes, instances, reps, gridK = []int{30}, 1, 5, 2
	}
	var kinds, shapes []int
	out := make([]benchJob, count)
	for i := range out {
		if len(kinds) == 0 {
			kinds = rnd.Perm(numJobKinds)
		}
		if len(shapes) == 0 {
			shapes = rnd.Perm(len(fams) * len(sizes))
		}
		kind, shape := kinds[len(kinds)-1], shapes[len(shapes)-1]
		kinds, shapes = kinds[:len(kinds)-1], shapes[:len(shapes)-1]
		typ, n := fams[shape%len(fams)], sizes[shape/len(fams)]
		jseed := seed<<16 | uint64(i)
		j := benchJob{kind: kind, algs: jobAlgorithms, typ: typ, n: n, seed: jseed, instances: instances, gridK: gridK, reps: reps}
		plat := platform.Default()
		if kind == jobSpot {
			plat = spot
		}
		if err := j.setAnchors(plat); err != nil {
			return nil, err
		}
		var spec map[string]any
		switch kind {
		case jobFault:
			spec = map[string]any{"kind": "faultSweep", "faultSweep": map[string]any{
				"workflowType": typ, "n": n, "algorithm": "heftbudg", "budgetFactor": jobFaultBudgetFactor,
				"rates": jobFaultRates, "instances": instances, "replications": reps, "seed": jseed,
			}}
		default:
			if kind == jobSpot {
				j.algs = jobSpotAlgorithms
			}
			sw := map[string]any{
				"workflowType": typ, "n": n, "algorithms": j.algs, "gridK": gridK,
				"instances": instances, "replications": reps, "seed": jseed,
			}
			if kind == jobAnalytic {
				sw["estimator"] = "analytic"
			}
			if kind == jobSpot {
				sw["market"] = json.RawMessage(jobMarket)
			}
			spec = map[string]any{"kind": "sweep", "sweep": sw}
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		j.body = body
		out[i] = j
	}
	return out, nil
}

func jobCount(cfg config) int {
	n := int(cfg.seconds * jobsPerSecond)
	if n < numJobKinds {
		n = numJobKinds
	}
	return n
}

// jobView is the part of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	State     string          `json:"state"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started"`
	Finished  *time.Time      `json:"finished"`
	Error     string          `json:"error"`
	Result    json.RawMessage `json:"result"`
}

// jobRun is one executed job.
type jobRun struct {
	op
	traceID   string
	queueWait time.Duration
}

// runJob submits one job, polls it to completion and checks its result.
func runJob(client *http.Client, url string, j benchJob, q *qualitySum) jobRun {
	t0 := time.Now()
	fail := func(class, format string, args ...any) jobRun {
		return jobRun{op: op{latency: time.Since(t0), err: checkf(class, format, args...)}}
	}
	resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		return fail("transport error", "%v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fail("transport error", "%v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return fail("HTTP "+strconv.Itoa(resp.StatusCode), "submit: %s", raw)
	}
	var sub struct {
		JobID   string `json:"jobId"`
		Deduped bool   `json:"deduped"`
		TraceID string `json:"traceId"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil || sub.JobID == "" {
		return fail("undecodable response", "submit: %q", raw)
	}
	if sub.Deduped {
		return fail("deduped job", "job %s deduplicated onto an earlier one", sub.JobID)
	}
	var v jobView
	for {
		time.Sleep(jobPoll)
		resp, err := client.Get(url + "/v1/jobs/" + sub.JobID)
		if err != nil {
			return fail("transport error", "%v", err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fail("transport error", "%v", err)
		}
		if resp.StatusCode != http.StatusOK {
			return fail("HTTP "+strconv.Itoa(resp.StatusCode), "poll: %s", raw)
		}
		v = jobView{}
		if err := json.Unmarshal(raw, &v); err != nil {
			return fail("undecodable response", "poll: %v", err)
		}
		if v.State == "done" || v.State == "failed" || v.State == "cancelled" {
			break
		}
	}
	// The latency ends at the coordinator's finish stamp (same host, same
	// wall clock), so the poll interval does not quantize it.
	r := jobRun{op: op{latency: time.Since(t0)}, traceID: sub.TraceID}
	if v.Finished != nil {
		r.latency = v.Finished.Sub(t0)
	}
	if v.Started != nil {
		r.queueWait = v.Started.Sub(v.Submitted)
	}
	if v.State != "done" {
		r.err = checkf("job "+v.State, "%s", v.Error)
		return r
	}
	r.err = checkJobResult(j, v.Result, q)
	return r
}

type summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stdDev"`
}

// checkJobResult parses a job's result: the expected number of series
// and points, the HEFT makespan and budgets of the job's generated
// instances, finite summaries, and — off spot — every execution
// complete. It adds the job's points to the quality sums.
func checkJobResult(j benchJob, raw json.RawMessage, q *qualitySum) error {
	var sum qualitySum
	if j.kind == jobFault {
		var res struct {
			Budget float64 `json:"budget"`
			Points []struct {
				Rate         float64 `json:"rate"`
				SuccessRate  float64 `json:"successRate"`
				WithinBudget float64 `json:"withinBudget"`
				Makespan     summary `json:"makespan"`
				Cost         summary `json:"cost"`
			} `json:"points"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			return checkf("undecodable result", "%v", err)
		}
		if len(res.Points) != len(jobFaultRates) {
			return checkf("incomplete result", "fault sweep: %d points, want %d", len(res.Points), len(jobFaultRates))
		}
		if res.Budget != j.budgets[0] {
			return checkf("wrong instance", "fault sweep budget %v; the job list has %v", res.Budget, j.budgets[0])
		}
		for i, p := range res.Points {
			switch {
			case p.Rate != jobFaultRates[i] || p.Cost.N != j.instances*j.reps || p.Makespan.N < 1:
				return checkf("incomplete result", "fault point %d: rate %v, %d executions", i, p.Rate, p.Cost.N)
			case !finite(p.Makespan.Mean, p.Makespan.StdDev, p.Cost.Mean, p.Cost.StdDev, p.SuccessRate, p.WithinBudget) ||
				p.Makespan.Mean <= 0 || p.Cost.Mean <= 0 || p.SuccessRate < 0 || p.SuccessRate > 1:
				return checkf("bad result summary", "fault point %d: makespan %v cost %v", i, p.Makespan.Mean, p.Cost.Mean)
			case p.Rate == 0 && p.SuccessRate != 1:
				return checkf("incomplete executions", "fault-free point: successRate %v", p.SuccessRate)
			}
			sum.add(p.Makespan.Mean/j.heftMakespan, p.Cost.Mean/res.Budget, p.WithinBudget)
		}
	} else {
		var res struct {
			BaselineMakespan float64 `json:"baselineMakespan"`
			Series           []struct {
				Algorithm string `json:"algorithm"`
				Points    []struct {
					Budget      float64 `json:"budget"`
					Makespan    summary `json:"makespan"`
					Cost        summary `json:"cost"`
					ValidFrac   float64 `json:"validFrac"`
					SuccessFrac float64 `json:"successFrac"`
				} `json:"points"`
			} `json:"series"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			return checkf("undecodable result", "%v", err)
		}
		if len(res.Series) != len(j.algs) {
			return checkf("incomplete result", "%d series, want %d", len(res.Series), len(j.algs))
		}
		if res.BaselineMakespan != j.heftMakespan {
			return checkf("wrong instance", "HEFT makespan %v; the job list has %v", res.BaselineMakespan, j.heftMakespan)
		}
		for i, s := range res.Series {
			if s.Algorithm != j.algs[i] || len(s.Points) != j.gridK {
				return checkf("incomplete result", "series %d: %s with %d points", i, s.Algorithm, len(s.Points))
			}
			for b, p := range s.Points {
				switch {
				case p.Budget != j.budgets[b]:
					return checkf("wrong instance", "%s: point %d budget %v; the job list has %v", s.Algorithm, b, p.Budget, j.budgets[b])
				case p.Makespan.N != j.instances*j.reps || p.Cost.N != j.instances*j.reps:
					return checkf("incomplete result", "%s: %d executions, want %d", s.Algorithm, p.Cost.N, j.instances*j.reps)
				case !finite(p.Makespan.Mean, p.Makespan.StdDev, p.Cost.Mean, p.Cost.StdDev, p.ValidFrac, p.SuccessFrac) ||
					p.Makespan.Mean <= 0 || p.Cost.Mean <= 0 || p.ValidFrac < 0 || p.ValidFrac > 1:
					return checkf("bad result summary", "%s: budget %v makespan %v cost %v", s.Algorithm, p.Budget, p.Makespan.Mean, p.Cost.Mean)
				case j.kind != jobSpot && p.SuccessFrac != 1:
					return checkf("incomplete executions", "%s: successFrac %v off spot", s.Algorithm, p.SuccessFrac)
				case j.kind == jobSpot && (p.SuccessFrac < 0 || p.SuccessFrac > 1):
					return checkf("bad result summary", "%s: successFrac %v", s.Algorithm, p.SuccessFrac)
				}
				sum.add(p.Makespan.Mean/j.heftMakespan, p.Cost.Mean/p.Budget, p.ValidFrac)
			}
		}
	}
	q.merge(sum)
	return nil
}

// runJobsPass runs the job list in order against the coordinator. With
// traced set, each job's stitched trace is fetched after it finishes.
// With m set, the host is probed before the first job, between
// probeSegments segments of the list and after the last job, and the
// returned wall excludes the probes.
func runJobsPass(url string, jobs []benchJob, traced bool, q *qualitySum, m *speedMeter) ([]jobRun, time.Duration, []*obs.TraceJSON, error) {
	client := &http.Client{Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	runs := make([]jobRun, len(jobs))
	var traces []*obs.TraceJSON
	var wall time.Duration
	start := time.Now()
	for i, j := range jobs {
		if i == 0 || i*probeSegments/len(jobs) != (i-1)*probeSegments/len(jobs) {
			wall += time.Since(start)
			m.probe()
			start = time.Now()
		}
		runs[i] = runJob(client, url, j, q)
		if traced && runs[i].err == nil {
			tr, err := fetchTrace(client, url, runs[i].traceID)
			if err != nil {
				return nil, 0, nil, err
			}
			traces = append(traces, tr)
		}
	}
	wall += time.Since(start)
	m.probe()
	return runs, wall, traces, nil
}

// startCluster starts a journalled coordinator with one shard worker
// setupRepeats times, each with a fresh journal directory, and keeps
// the last pair: ds[0] is the coordinator, ds[1] the worker.
func startCluster(cfg config) ([]*daemon, []time.Duration, error) {
	return startRepeated(cfg, func(int) ([]int, [][]string, error) {
		cp, err := freePort()
		if err != nil {
			return nil, nil, err
		}
		wp, err := freePort()
		if err != nil {
			return nil, nil, err
		}
		dir, err := os.MkdirTemp(cfg.work, "journal-")
		if err != nil {
			return nil, nil, err
		}
		journal := filepath.Join(dir, "jobs.jsonl")
		coord := []string{"-journal", journal, "-peers", fmt.Sprintf("http://127.0.0.1:%d", wp), "-workers", "2", "-drain", "2s"}
		worker := []string{"-worker", "-workers", "2", "-drain", "2s"}
		return []int{cp, wp}, [][]string{coord, worker}, nil
	})
}

func runSweepJobs(cfg config) (*outcome, error) {
	jobs, err := buildJobs(cfg.seed, jobCount(cfg), cfg.smoke)
	if err != nil {
		return nil, err
	}
	meter := &speedMeter{}
	meter.probe()
	ds, setups, err := startCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer stopDaemons(ds)
	o := &outcome{setups: setups, meter: meter}
	cpu0, err := usage(pids(ds))
	if err != nil {
		return nil, err
	}
	runs, wall, _, err := runJobsPass(ds[0].url, jobs, false, &o.quality, meter)
	if err != nil {
		return nil, err
	}
	cpu1, err := usage(pids(ds))
	if err != nil {
		return nil, err
	}
	if o.rssMB, err = peakRSS(pids(ds)); err != nil {
		return nil, err
	}
	o.wall, o.cpu = wall, cpu1-cpu0
	for _, r := range runs {
		o.ops = append(o.ops, r.op)
	}
	return o, nil
}
