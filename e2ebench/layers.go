package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"budgetwf/internal/est"
	"budgetwf/internal/exp"
	"budgetwf/internal/fault"
	"budgetwf/internal/market"
	"budgetwf/internal/obs"
	"budgetwf/internal/online"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// The traced run (-trace 1). It runs the workload's op list, sized for
// a quarter of -seconds (traceShare), twice — untraced, then traced, on
// fresh processes each time; the ratio of the two walls, each divided
// by the host factor of probes taken around its own pass, is
// obs.overhead_ratio (paper-fig2, whose sweeps carry no trace, times
// traced against untraced planning instead: planTraceOverhead) — and
// reads the layers from three sources:
//
//	traffic  the workload's own requests: client latency split on the
//	         response's cached flag, ?trace=1 span trees, stitched job
//	         traces (GET /v1/traces/{id}) and the daemons' /metrics.
//	replay   a seed-fixed sample of the workload's inputs replayed
//	         through each module's public functions, with a span the
//	         benchmark records around every call.
//	probe    for a service layer the workload does not drive, a small
//	         seed-fixed request set sent to a coordinator and shard
//	         worker: the replay inputs as /v1/schedule requests (under
//	         paper-fig2 and sweep-jobs), and one async job of each kind
//	         (under schedule-mix and paper-fig2).
//
// Every layer metric is reported on every workload; its table line
// names the source and the end-to-end metric it should move.

// traceShare sizes the traced run's op list: it runs the list twice,
// and the traced schedule-mix pass is several times slower than the
// untraced one.
const traceShare = 0.25

func traceSized(cfg config) config {
	cfg.seconds *= traceShare
	return cfg
}

// planAlgorithms are the planners the replay times, one
// sched.plan_ms.<name> metric each ('+' is spelled "-plus").
var planAlgorithms = []sched.Name{
	sched.NameHeft, sched.NameHeftBudg, sched.NameHeftBudgPlus, sched.NameHeftBudgPlusInv,
	sched.NameMinMinBudg, sched.NameBDT, sched.NameCG,
}

func planMetric(n sched.Name) string {
	return "sched.plan_ms." + strings.NewReplacer("+inv", "-plus-inv", "+", "-plus").Replace(string(n))
}

// layerCatalog is every per-layer metric with the end-to-end metric it
// should move; BENCHMARK.json lists the same names and units.
var layerCatalog = func() []layerDef {
	defs := []layerDef{
		{"wf.decode_ms", "ms", "schedule-mix op_p50_ms, ops_per_s (no change on paper-fig2)"},
		{"wf.hash_ms", "ms", "schedule-mix op_p50_ms, ops_per_s (no change on paper-fig2)"},
		{"platform.hash_us", "us", "schedule-mix op_p50_ms, ops_per_s"},
		{"server.hit_ms", "ms", "schedule-mix op_p50_ms, ops_per_s"},
		{"server.miss_ms", "ms", "schedule-mix op_p50_ms, op_p95_ms"},
		{"server.cache_hit_ratio", "ratio", "schedule-mix ops_per_s; relabelled hits decide ok_ratio"},
		{"server.rejected", "count", "schedule-mix ok_ratio (must read 0)"},
		{"server.metrics_scrape_ms", "ms", "schedule-mix cpu_ms_per_op"},
		{"server.span_self_ms", "ms", "schedule-mix op_p50_ms (decode, cache key, encode)"},
	}
	for _, n := range planAlgorithms {
		defs = append(defs, layerDef{planMetric(n), "ms", "schedule-mix op_p95_ms (misses); paper-fig2 ops_per_s (refinement)"})
	}
	return append(defs, []layerDef{
		{"sched.plans", "count", "schedule-mix op_p95_ms; paper-fig2 ops_per_s"},
		{"sim.det_ms", "ms", "schedule-mix op_p95_ms"},
		{"sim.rep_us", "us", "paper-fig2 ops_per_s; sweep-jobs op_p50_ms (MC jobs)"},
		{"est.compute_us", "us", "sweep-jobs op_p50_ms (analytic jobs)"},
		{"online.rep_us", "us", "sweep-jobs ops_per_s, cpu_ms_per_op (fault jobs; no change on paper-fig2)"},
		{"online.spot_rep_us", "us", "sweep-jobs ops_per_s, cpu_ms_per_op (spot jobs; no change on paper-fig2)"},
		{"exp.sweep_s", "s", "paper-fig2 ops_per_s"},
		{"exp.self_ratio", "ratio", "paper-fig2 ops_per_s"},
		{"dist.queue_wait_ms", "ms", "sweep-jobs op_p50_ms"},
		{"dist.dispatch_ms", "ms", "sweep-jobs op_p50_ms, cpu_ms_per_op"},
		{"dist.compute_ms", "ms", "sweep-jobs op_p50_ms"},
		{"dist.merge_ms", "ms", "sweep-jobs op_p50_ms"},
		{"dist.shards", "count", "sweep-jobs op_p50_ms, cpu_ms_per_op"},
		{"dist.shards_requeued", "count", "sweep-jobs op_p50_ms (must read 0 here)"},
		{"dist.shards_stolen", "count", "sweep-jobs op_p50_ms (must read 0 here)"},
		{"dist.local_fallback", "count", "sweep-jobs cpu_ms_per_op (must read 0)"},
		{"dist.journal_tail_records", "count", "sweep-jobs op_p50_ms"},
		{"obs.overhead_ratio", "ratio", "every workload: traced ÷ untraced time of the same work, host-normalized"},
	}...)
}()

type layerDef struct{ name, unit, moves string }

type layerValue struct {
	v      float64
	source string
}

// layerReport is the outcome of a traced run.
type layerReport struct {
	values map[string]layerValue
	ops    []op // every op the traced run checked
}

func newLayerReport() *layerReport { return &layerReport{values: map[string]layerValue{}} }

func (l *layerReport) set(name, source string, v float64) {
	l.values[name] = layerValue{v: v, source: source}
}

// print writes the per-layer table.
func (l *layerReport) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "per-layer metrics, %s (traced run):\n", workload)
	fmt.Fprintf(w, "  %-32s %14s %-6s %-8s %s\n", "metric", "value", "unit", "source", "should move")
	for _, d := range layerCatalog {
		v := l.values[d.name]
		fmt.Fprintf(w, "  %-32s %14.6g %-6s %-8s %s\n", d.name, v.v, d.unit, v.source, d.moves)
	}
}

func (l *layerReport) result() result {
	o := outcome{ops: l.ops}
	res := result{Correct: o.onlyKnownFailures(), Attempted: len(l.ops), Failed: o.failed(), Metrics: map[string]metric{}}
	for _, d := range layerCatalog {
		v, ok := l.values[d.name]
		if !ok || !finite(v.v) {
			res.Correct = false
			continue
		}
		res.Metrics[d.name] = metric{Value: v.v, Unit: d.unit}
	}
	return res
}

// replayInput is one workflow instance of a workload, replayed through
// the modules' public functions.
type replayInput struct {
	typ    wfgen.Type
	w      *wf.Workflow
	raw    []byte // its JSON
	budget float64
}

// newReplayInput prepares a workflow for the replay at the middle of
// the paper's budget grid.
func newReplayInput(typ wfgen.Type, w *wf.Workflow) (replayInput, error) {
	a, err := exp.ComputeAnchors(w, platform.Default())
	if err != nil {
		return replayInput{}, err
	}
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		return replayInput{}, err
	}
	return replayInput{typ: typ, w: w, raw: buf.Bytes(), budget: a.BudgetFactors(5)[2] * a.CheapCost}, nil
}

// maxReplayPlanTasks bounds the workflows the planner replay uses: the
// refinement planners take tens of seconds at n = 300.
const maxReplayPlanTasks = 100

// spanTimer records a span around each call, under one root.
type spanTimer struct{ tr *obs.Trace }

func newSpanTimer(name string) spanTimer { return spanTimer{tr: obs.New(name)} }

func (s spanTimer) time(name string, f func() error) error {
	sp := s.tr.Root().Child(name)
	err := f()
	sp.End()
	return err
}

// durations returns each span name's durations in microseconds.
func (s spanTimer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, c := range s.tr.Tree().Root.Children {
		out[c.Name] = append(out[c.Name], c.DurUs)
	}
	return out
}

// replayModules times each module's public functions on the inputs:
// decode and hash (wf, platform), every planner (sched), deterministic
// and stochastic simulation (sim), the analytic estimator (est) and the
// online executor under faults and under spot revocations (online).
func replayModules(seed uint64, inputs []replayInput, l *layerReport) error {
	st := newSpanTimer("replay")
	ctx := context.Background()
	plat := platform.Default()
	spec, err := market.ParseSpecBytes([]byte(jobMarket))
	if err != nil {
		return err
	}
	spot, err := spec.Compile()
	if err != nil {
		return err
	}
	for i, in := range inputs {
		if err := st.time("wf.ReadJSON", func() error {
			_, err := wf.ReadJSON(bytes.NewReader(in.raw))
			return err
		}); err != nil {
			return err
		}
		st.time("wf.CanonicalHash", func() error { in.w.CanonicalHash(); return nil })
		for k := 0; k < 10; k++ {
			st.time("platform.CanonicalHash", func() error { plat.CanonicalHash(); return nil })
		}
		if in.w.NumTasks() > maxReplayPlanTasks {
			continue
		}
		var s *plan.Schedule
		for _, alg := range planAlgorithms {
			var got *plan.Schedule
			if err := st.time(planMetric(alg), func() error {
				var err error
				got, err = sched.PlanContext(ctx, alg, in.w, plat, in.budget)
				return err
			}); err != nil {
				return err
			}
			if alg == sched.NameHeftBudg {
				s = got
			}
		}
		if err := st.time("sim.RunDeterministic", func() error {
			_, err := sim.RunDeterministic(in.w, plat, s)
			return err
		}); err != nil {
			return err
		}
		stream := rng.New(seed).Split(uint64(i))
		if err := st.time("sim.NewRunner+rep", func() error {
			r, err := sim.NewRunner(in.w, plat, s)
			if err != nil {
				return err
			}
			_, err = r.RunStochastic(stream.Split(0))
			return err
		}); err != nil {
			return err
		}
		if err := st.time("est.Compute", func() error {
			_, err := est.Compute(in.w, plat, s)
			return err
		}); err != nil {
			return err
		}
		weights := sim.SampleWeights(in.w, stream.Split(1))
		faults := &fault.Spec{CrashRatePerHour: []float64{0.5}, Seed: seed + uint64(i)}
		if err := st.time("online.ExecuteFaulty", func() error {
			_, err := online.ExecuteFaulty(in.w, plat, s, weights, faults, in.budget)
			return err
		}); err != nil {
			return err
		}
		a, err := exp.ComputeAnchors(in.w, spot)
		if err != nil {
			return err
		}
		budget := a.BudgetFactors(5)[2] * a.CheapCost
		ss, err := sched.PlanContext(ctx, sched.NameHeftBudg, in.w, spot, budget)
		if err != nil {
			return err
		}
		if err := st.time("online.ExecuteFaulty(spot)", func() error {
			_, err := online.ExecuteFaulty(in.w, spot, ss, weights, market.RevocationSpec(spot, seed+uint64(i)), budget)
			return err
		}); err != nil {
			return err
		}
	}
	d := st.durations()
	med := func(name string) float64 { return median(d[name]) }
	l.set("wf.decode_ms", "replay", med("wf.ReadJSON")/1e3)
	l.set("wf.hash_ms", "replay", med("wf.CanonicalHash")/1e3)
	l.set("platform.hash_us", "replay", med("platform.CanonicalHash"))
	for _, alg := range planAlgorithms {
		l.set(planMetric(alg), "replay", med(planMetric(alg))/1e3)
	}
	l.set("sim.det_ms", "replay", med("sim.RunDeterministic")/1e3)
	l.set("sim.rep_us", "replay", med("sim.NewRunner+rep"))
	l.set("est.compute_us", "replay", med("est.Compute"))
	l.set("online.rep_us", "replay", med("online.ExecuteFaulty"))
	l.set("online.spot_rep_us", "replay", med("online.ExecuteFaulty(spot)"))
	return nil
}

// replayExp runs one sweep with a single worker and replays its cells
// — one plan and Reps stochastic replications each — through sched and
// sim. exp.self_ratio is the share of the sweep's wall time spent
// outside those calls: instance preparation, anchors, aggregation. The
// sweep runs before and after the replay and its wall is the mean of
// the two, so a drift in machine speed does not land on one side.
func replayExp(sc exp.Scenario, algs []sched.Algorithm, gridK int, l *layerReport) error {
	sc.Workers = 1
	var wall time.Duration
	sweep := func() error {
		t0 := time.Now()
		_, err := exp.RunSweep(sc, algs, gridK)
		wall += time.Since(t0) / 2
		return err
	}
	if err := sweep(); err != nil {
		return err
	}
	sc = sc.Defaults()
	st := newSpanTimer("exp-replay")
	for i := 0; i < sc.Instances; i++ {
		w, err := sc.Instance(i)
		if err != nil {
			return err
		}
		a, err := exp.ComputeAnchors(w, sc.Platform)
		if err != nil {
			return err
		}
		for _, alg := range algs {
			for b, f := range a.BudgetFactors(gridK) {
				var s *plan.Schedule
				if err := st.time("plan", func() error {
					var err error
					s, err = alg.Plan(w, sc.Platform, f*a.CheapCost)
					return err
				}); err != nil {
					return err
				}
				stream := rng.New(sc.Seed).Split(uint64(i)<<32 | uint64(b))
				if err := st.time("simulate", func() error {
					r, err := sim.NewRunner(w, sc.Platform, s)
					if err != nil {
						return err
					}
					for rep := 0; rep < sc.Reps; rep++ {
						if _, err := r.RunStochastic(stream.Split(uint64(rep))); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					return err
				}
			}
		}
	}
	if err := sweep(); err != nil {
		return err
	}
	inner := 0.0
	for _, ds := range st.durations() {
		for _, d := range ds {
			inner += d
		}
	}
	wallUs := us(wall)
	l.set("exp.sweep_s", "replay", wall.Seconds())
	l.set("exp.self_ratio", "replay", (wallUs-inner)/wallUs)
	return nil
}

// daemonMetrics is the part of GET /metrics (JSON) the traced run reads.
type daemonMetrics struct {
	Statuses map[string]float64 `json:"statuses"`
	Cache    struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"cache"`
	Cluster struct {
		Coordinator struct {
			Dispatched     float64 `json:"dispatched"`
			Requeued       float64 `json:"requeued"`
			Stolen         float64 `json:"stolen"`
			LocalFallbacks float64 `json:"localFallbacks"`
		} `json:"coordinator"`
		Journal struct {
			TailRecords float64 `json:"tailRecords"`
		} `json:"journal"`
	} `json:"cluster"`
}

func getMetrics(url string) (*daemonMetrics, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	var m daemonMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &m, nil
}

// fetchTrace reads one retained trace.
func fetchTrace(client *http.Client, url, id string) (*obs.TraceJSON, error) {
	resp, err := client.Get(url + "/v1/traces/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: status %d", id, resp.StatusCode)
	}
	var tr obs.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return nil, fmt.Errorf("trace %s: %w", id, err)
	}
	return &tr, nil
}

// selfMs is a span tree root's self time: its duration minus the time
// its direct children cover, in milliseconds.
func selfMs(tr *obs.TraceJSON) float64 {
	self := tr.Root.DurUs
	for _, c := range tr.Root.Children {
		self -= c.DurUs
	}
	return self / 1e3
}

// setServerLayers fills the server layer from hit/miss latencies,
// traced span trees, scrapes and the daemon's counters.
func setServerLayers(l *layerReport, source string, hits, misses, selfs []float64, scrapes []time.Duration, m *daemonMetrics) {
	sc := make([]float64, len(scrapes))
	for i, d := range scrapes {
		sc[i] = ms(d)
	}
	l.set("server.hit_ms", source, median(hits))
	l.set("server.miss_ms", source, median(misses))
	l.set("server.span_self_ms", source, median(selfs))
	l.set("server.metrics_scrape_ms", source, median(sc))
	l.set("server.cache_hit_ratio", source, m.Cache.Hits/(m.Cache.Hits+m.Cache.Misses))
	l.set("server.rejected", source, m.Statuses["429"])
}

// setDistLayers fills the dist layer from executed jobs, their
// stitched traces and the coordinator's counters. Each stitched shard
// splits, as cmd/loadgen does, into worker compute (its grafted
// "compute" subtree) and dispatch overhead (the rest of the shard
// span); the root's tail past the last shard is the merge.
func setDistLayers(l *layerReport, source string, runs []jobRun, traces []*obs.TraceJSON, m *daemonMetrics) {
	var waits, dispatch, compute, merge []float64
	for _, r := range runs {
		if r.err == nil {
			waits = append(waits, ms(r.queueWait))
		}
	}
	for _, tr := range traces {
		lastEnd := 0.0
		for _, c := range tr.Root.Children {
			if c.Name != "shard" {
				continue
			}
			lastEnd = max(lastEnd, c.StartUs+c.DurUs)
			cu := 0.0
			for _, cc := range c.Children {
				if cc.Name == "compute" {
					cu += cc.DurUs
				}
			}
			if cu <= 0 || cu > c.DurUs {
				continue
			}
			compute = append(compute, cu/1e3)
			dispatch = append(dispatch, (c.DurUs-cu)/1e3)
		}
		merge = append(merge, max(0, tr.Root.DurUs-lastEnd)/1e3)
	}
	c := m.Cluster.Coordinator
	l.set("dist.queue_wait_ms", source, median(waits))
	l.set("dist.dispatch_ms", source, median(dispatch))
	l.set("dist.compute_ms", source, median(compute))
	l.set("dist.merge_ms", source, median(merge))
	l.set("dist.shards", source, c.Dispatched)
	l.set("dist.shards_requeued", source, c.Requeued)
	l.set("dist.shards_stolen", source, c.Stolen)
	l.set("dist.local_fallback", source, c.LocalFallbacks)
	l.set("dist.journal_tail_records", source, m.Cluster.Journal.TailRecords)
}

// probeServer sends each input to /v1/schedule as a miss, a
// byte-identical hit and a traced miss (another budget), checking every
// plan against its workflow, and scrapes /metrics five times.
func probeServer(url string, inputs []replayInput, l *layerReport) error {
	client := &http.Client{Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	ncats := platform.Default().NumCategories()
	var hits, misses, selfs []float64
	for _, in := range inputs {
		for _, v := range []struct {
			budget float64
			traced bool
		}{{in.budget, false}, {in.budget, false}, {in.budget * 1.01, true}} {
			body, err := scheduleBody(in.raw, "heftbudg", v.budget)
			if err != nil {
				return err
			}
			r := &mixReq{w: in.w, body: body}
			r.key = &mixKey{alg: "heftbudg", budget: v.budget, first: r}
			target := url + "/v1/schedule"
			if v.traced {
				target += "?trace=1"
			}
			res := sendSchedule(client, target, r, ncats)
			l.ops = append(l.ops, res.op)
			if res.err != nil {
				continue
			}
			switch {
			case v.traced:
				var tr obs.TraceJSON
				if err := json.Unmarshal(res.reply.Trace, &tr); err != nil || tr.Root == nil {
					return fmt.Errorf("probe: traced response without a span tree")
				}
				selfs = append(selfs, selfMs(&tr))
			case res.reply.Cached:
				hits = append(hits, ms(res.latency))
			default:
				misses = append(misses, ms(res.latency))
			}
		}
	}
	var scrapes []time.Duration
	for i := 0; i < 5; i++ {
		d, err := scrapePrometheus(client, url)
		if err != nil {
			return err
		}
		scrapes = append(scrapes, d)
	}
	m, err := getMetrics(url)
	if err != nil {
		return err
	}
	setServerLayers(l, "probe", hits, misses, selfs, scrapes, m)
	return nil
}

// probeJobs runs one job of each kind, traced, on the cluster.
func probeJobs(cfg config, url string, l *layerReport) error {
	jobs, err := buildJobs(cfg.seed, numJobKinds, cfg.smoke)
	if err != nil {
		return err
	}
	var q qualitySum
	runs, _, traces, err := runJobsPass(url, jobs, true, &q, nil)
	if err != nil {
		return err
	}
	for _, r := range runs {
		l.ops = append(l.ops, r.op)
	}
	m, err := getMetrics(url)
	if err != nil {
		return err
	}
	setDistLayers(l, "probe", runs, traces, m)
	return nil
}

// withProbeCluster starts a coordinator and a shard worker for the
// probes and stops them afterwards.
func withProbeCluster(cfg config, f func(url string) error) error {
	ds, _, err := startCluster(cfg)
	if err != nil {
		return err
	}
	defer stopDaemons(ds)
	return f(ds[0].url)
}

func traceScheduleMix(cfg config) (*layerReport, error) {
	l := newLayerReport()
	mp, err := buildMixPlan(cfg.seed, mixOpsPerClient(traceSized(cfg)), cfg.smoke)
	if err != nil {
		return nil, err
	}
	// Each pass returns its wall divided by its own host factor.
	pass := func(traced bool) (*mixRun, *daemonMetrics, float64, error) {
		ds, _, err := startDaemons(cfg.daemon, cfg.work, mixDaemonArgs(mp))
		if err != nil {
			return nil, nil, 0, err
		}
		defer stopDaemons(ds)
		meter := &speedMeter{}
		run, err := runMixPass(ds[0].url, mp, traced, meter)
		if err == nil {
			err = meter.err
		}
		if err != nil {
			return nil, nil, 0, err
		}
		m, err := getMetrics(ds[0].url)
		return run, m, run.wall.Seconds() / meter.factor(), err
	}
	plain, m, plainWall, err := pass(false)
	if err != nil {
		return nil, err
	}
	traced, _, tracedWall, err := pass(true)
	if err != nil {
		return nil, err
	}
	var hits, misses, selfs []float64
	for _, res := range plain.results {
		for _, r := range res {
			l.ops = append(l.ops, r.op)
			if r.reply == nil {
				continue
			}
			if r.reply.Cached {
				hits = append(hits, ms(r.latency))
			} else {
				misses = append(misses, ms(r.latency))
			}
		}
	}
	for _, res := range traced.results {
		for _, r := range res {
			l.ops = append(l.ops, r.op)
			if r.reply == nil {
				continue
			}
			var tr obs.TraceJSON
			if err := json.Unmarshal(r.reply.Trace, &tr); err != nil || tr.Root == nil {
				return nil, fmt.Errorf("traced response without a span tree")
			}
			selfs = append(selfs, selfMs(&tr))
		}
	}
	setServerLayers(l, "traffic", hits, misses, selfs, plain.scrapes, m)
	l.set("sched.plans", "traffic", m.Cache.Misses)
	l.set("obs.overhead_ratio", "traffic", tracedWall/plainWall)

	if err := replayModules(cfg.seed, mp.samples, l); err != nil {
		return nil, err
	}
	for _, in := range mp.samples {
		if in.w.NumTasks() <= maxReplayPlanTasks {
			sc := exp.Scenario{Type: in.typ, N: in.w.NumTasks(), SigmaRatio: 0.5, Instances: 1, Reps: 25, Seed: cfg.seed}
			algs, err := algorithms(mixPlanners)
			if err != nil {
				return nil, err
			}
			if err := replayExp(sc, algs, 8, l); err != nil {
				return nil, err
			}
			break
		}
	}
	return l, withProbeCluster(cfg, func(url string) error { return probeJobs(cfg, url, l) })
}

func tracePaperFig2(cfg config) (*layerReport, error) {
	l := newLayerReport()
	algs, err := fig2Algorithms()
	if err != nil {
		return nil, err
	}
	list, err := fig2Setup(cfg.seed, fig2Ops(traceSized(cfg)), cfg.smoke)
	if err != nil {
		return nil, err
	}
	gridK := fig2GridK(cfg.smoke)
	var q qualitySum
	l.ops, _, _, err = fig2Pass(list, algs, gridK, nil, &q)
	if err != nil {
		return nil, err
	}
	overhead, err := planTraceOverhead(list, algs, gridK)
	if err != nil {
		return nil, err
	}
	l.set("obs.overhead_ratio", "replay", overhead)
	cells := 0
	for _, o := range list {
		cells += len(algs) * gridK * o.sc.Instances
	}
	l.set("sched.plans", "traffic", float64(cells))

	var inputs []replayInput
	for _, o := range list {
		w, err := o.sc.Instance(0)
		if err != nil {
			return nil, err
		}
		in, err := newReplayInput(o.sc.Type, w)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, in)
	}
	if err := replayModules(cfg.seed, inputs, l); err != nil {
		return nil, err
	}
	if err := replayExp(list[0].sc, algs[:3], gridK, l); err != nil {
		return nil, err
	}
	return l, withProbeCluster(cfg, func(url string) error {
		if err := probeServer(url, inputs, l); err != nil {
			return err
		}
		return probeJobs(cfg, url, l)
	})
}

func traceSweepJobs(cfg config) (*layerReport, error) {
	l := newLayerReport()
	jobs, err := buildJobs(cfg.seed, jobCount(traceSized(cfg)), cfg.smoke)
	if err != nil {
		return nil, err
	}
	// Each pass returns its wall divided by its own host factor.
	pass := func(traced bool, probe func(url string) error) ([]jobRun, float64, []*obs.TraceJSON, *daemonMetrics, error) {
		ds, _, err := startCluster(cfg)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		defer stopDaemons(ds)
		var q qualitySum
		meter := &speedMeter{}
		runs, wall, traces, err := runJobsPass(ds[0].url, jobs, traced, &q, meter)
		if err == nil {
			err = meter.err
		}
		if err != nil {
			return nil, 0, nil, nil, err
		}
		m, err := getMetrics(ds[0].url)
		if err != nil {
			return nil, 0, nil, nil, err
		}
		if probe != nil {
			err = probe(ds[0].url)
		}
		return runs, wall.Seconds() / meter.factor(), traces, m, err
	}
	plainRuns, plainWall, _, _, err := pass(false, nil)
	if err != nil {
		return nil, err
	}
	var inputs []replayInput
	for _, j := range jobs[:min(len(jobs), 8)] {
		w, err := (exp.Scenario{Type: j.typ, N: j.n, SigmaRatio: 0.5, Seed: j.seed}).Instance(0)
		if err != nil {
			return nil, err
		}
		in, err := newReplayInput(j.typ, w)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, in)
	}
	tracedRuns, tracedWall, traces, m, err := pass(true, func(url string) error { return probeServer(url, inputs, l) })
	if err != nil {
		return nil, err
	}
	for _, r := range append(plainRuns, tracedRuns...) {
		l.ops = append(l.ops, r.op)
	}
	// Queue waits from the untraced pass; shard phases and counters from
	// the traced one, whose stitched traces the benchmark fetched.
	setDistLayers(l, "traffic", tracedRuns, traces, m)
	var waits []float64
	for _, r := range plainRuns {
		if r.err == nil {
			waits = append(waits, ms(r.queueWait))
		}
	}
	l.set("dist.queue_wait_ms", "traffic", median(waits))
	l.set("obs.overhead_ratio", "traffic", tracedWall/plainWall)
	plans := 0
	for _, j := range jobs {
		if j.kind == jobFault {
			plans += j.instances
		} else {
			plans += len(j.algs) * j.gridK * j.instances
		}
	}
	l.set("sched.plans", "traffic", float64(plans))

	if err := replayModules(cfg.seed, inputs, l); err != nil {
		return nil, err
	}
	algs, err := algorithms(jobAlgorithms)
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if j.kind == jobMC {
			sc := exp.Scenario{Type: j.typ, N: j.n, SigmaRatio: 0.5, Instances: j.instances, Reps: j.reps, Seed: j.seed}
			return l, replayExp(sc, algs, j.gridK, l)
		}
	}
	return nil, fmt.Errorf("no Monte Carlo job in the list")
}

// planTraceOverhead is paper-fig2's obs.overhead_ratio. exp.RunSweep
// plans without a context, so a traced sweep would trace nothing; the
// instrumented path is sched.PlanContext, whose planners emit their
// decision trace into a span the context carries. Every (instance,
// algorithm, budget) cell of the list is planned twice, untraced and
// under the root span of a fresh trace, back to back and in alternating
// order, so that neither side always runs first on a warm cache and a
// drift in host speed lands on both; the ratio is of the summed plan
// times.
func planTraceOverhead(list []fig2Op, algs []sched.Algorithm, gridK int) (float64, error) {
	plat := platform.Default()
	var times [2]time.Duration // untraced, traced
	cell := 0
	for _, o := range list {
		w, err := o.sc.Instance(0)
		if err != nil {
			return 0, err
		}
		for _, alg := range algs {
			for _, f := range o.anchors.BudgetFactors(gridK) {
				for k := 0; k < 2; k++ {
					side := (cell + k) % 2
					ctx := context.Background()
					if side == 1 {
						// A fresh trace per plan, so no call runs
						// into the trace's node cap.
						ctx = obs.WithSpan(ctx, obs.New("plan").Root())
					}
					t0 := time.Now()
					if _, err := sched.PlanContext(ctx, alg.Name, w, plat, f*o.anchors.CheapCost); err != nil {
						return 0, err
					}
					times[side] += time.Since(t0)
				}
				cell++
			}
		}
	}
	return times[1].Seconds() / times[0].Seconds(), nil
}

// algorithms resolves planner names.
func algorithms[S ~string](names []S) ([]sched.Algorithm, error) {
	var out []sched.Algorithm
	for _, n := range names {
		a, err := sched.ByName(sched.Name(n))
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
