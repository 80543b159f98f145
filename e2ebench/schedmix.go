package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"

	"budgetwf/internal/exp"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// The schedule-mix workload: a closed loop of mixClients clients, each
// sending POST /v1/schedule to one budgetwfd -workers 2 process. Each
// client owns a disjoint slice of the request pool (its own workflow
// instances), so which requests hit, miss or collide in the plan cache
// depends only on that client's own sequence, never on how the two
// clients interleave.

const (
	mixClients = 2
	// mixOpsPerSecond sizes each client's op list from -seconds: the
	// list takes about that long at today's throughput. The quality
	// metrics are taken over the whole list, never over a time window.
	mixOpsPerSecond = 250
)

// Request kinds: first-seen requests (misses), byte-identical repeats
// of a first-seen request (hits) and relabelled repeats (the same DAG,
// planner and budget as an earlier first-seen request, with its tasks
// re-indexed). Every block of 20 consecutive ops of a client holds 10,
// 7 and 3 of them, in a shuffled order, so the share of each kind — and
// of the relabelled repeats the plan cache answers in another request's
// task numbering (ROADMAP defect D1) — is the same for every seed.
//
// The 10:7:3 split is an assumption, not a measured traffic mix: the
// repository holds no request log to take one from. Half the ops miss,
// so decode, the cheap planners and the cache path all weigh in
// ops_per_s; 15% are relabelled, enough for D1 to show in ok_ratio
// without dominating it. Since the split decides how much the plan
// cache pays, a claim about the cache rests on server.hit_ms and
// server.miss_ms of the traced run, not on the blended ops_per_s.
const (
	kindMiss = iota
	kindRepeat
	kindRelabel
)

var mixBlock = [...]int{kindMiss: 10, kindRepeat: 7, kindRelabel: 3}

// mixKinds returns one shuffled block of request kinds.
func mixKinds(rnd *rand.Rand) []int {
	var out []int
	for kind, n := range mixBlock {
		for i := 0; i < n; i++ {
			out = append(out, kind)
		}
	}
	rnd.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

var (
	mixFamilies = []wfgen.Type{wfgen.Montage, wfgen.CyberShake, wfgen.Ligo}
	mixSizes    = []int{30, 50, 100, 300}
	// The cheap planners only: refinement is the paper-fig2 workload's.
	mixPlanners = []string{"heftbudg", "minminbudg", "bdt", "cg"}
)

// mixBase is one workflow instance of a client's pool.
type mixBase struct {
	typ     wfgen.Type
	w       *wf.Workflow
	raw     []byte // its JSON
	anchors *exp.Anchors
}

// mixKey is one distinct plan-cache key: workflow, planner, budget.
type mixKey struct {
	base   *mixBase
	alg    string
	budget float64
	first  *mixReq // the first-seen variant (original task numbering)
}

// mixReq is one distinct request body.
type mixReq struct {
	key        *mixKey
	w          *wf.Workflow // the workflow in this body's task numbering
	body       []byte
	relabelled bool
}

// mixPlan is the fixed, seed-derived op list of every client.
type mixPlan struct {
	clients [][]*mixReq
	keys    int // distinct cache keys over all clients
	// samples are the first client's first workflow of every shape,
	// replayed through the modules in the traced run.
	samples []replayInput
}

// buildMixPlan derives the whole request sequence from the seed.
func buildMixPlan(seed uint64, opsPerClient int, smoke bool) (*mixPlan, error) {
	sizes := mixSizes
	if smoke {
		sizes = []int{30}
	}
	plat := platform.Default()
	mp := &mixPlan{}
	for c := 0; c < mixClients; c++ {
		rnd := rand.New(rand.NewPCG(seed, uint64(c)+1))
		var bases []*mixBase
		var combos []*mixKey // unused keys, drawn in random order
		var keys []*mixKey   // keys already sent
		// Workflow shapes cycle through every (family, n) pair in a
		// shuffled order, so each client's pool holds them in equal
		// numbers whatever the seed.
		var shapes []int
		newBase := func() error {
			if len(shapes) == 0 {
				shapes = rnd.Perm(len(mixFamilies) * len(sizes))
			}
			shape := shapes[len(shapes)-1]
			shapes = shapes[:len(shapes)-1]
			typ := mixFamilies[shape%len(mixFamilies)]
			n := sizes[shape/len(mixFamilies)]
			// Instance seeds are disjoint per client: the high bits
			// carry the client.
			wseed := seed<<20 ^ uint64(c)<<16 ^ uint64(len(bases))
			w0, err := wfgen.Generate(typ, n, wseed)
			if err != nil {
				return err
			}
			w := w0.WithSigmaRatio(0.5)
			a, err := exp.ComputeAnchors(w, plat)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := w.WriteJSON(&buf); err != nil {
				return err
			}
			b := &mixBase{typ: typ, w: w, raw: buf.Bytes(), anchors: a}
			bases = append(bases, b)
			// Three interior budget levels of the paper's 5-level grid.
			factors := a.BudgetFactors(5)[1:4]
			for _, alg := range mixPlanners {
				for _, f := range factors {
					combos = append(combos, &mixKey{base: b, alg: alg, budget: f * a.CheapCost})
				}
			}
			rnd.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
			return nil
		}
		ops := make([]*mixReq, 0, opsPerClient)
		var kinds []int
		for i := 0; i < opsPerClient; i++ {
			if len(kinds) == 0 {
				kinds = mixKinds(rnd)
			}
			kind := kinds[len(kinds)-1]
			kinds = kinds[:len(kinds)-1]
			var r *mixReq
			switch {
			case i == 0 || kind == kindMiss:
				if len(combos) == 0 {
					if err := newBase(); err != nil {
						return nil, err
					}
				}
				k := combos[len(combos)-1]
				combos = combos[:len(combos)-1]
				body, err := scheduleBody(k.base.raw, k.alg, k.budget)
				if err != nil {
					return nil, err
				}
				r = &mixReq{key: k, w: k.base.w, body: body}
				k.first = r
				keys = append(keys, k)
			case kind == kindRepeat:
				r = keys[rnd.IntN(len(keys))].first
			default:
				k := keys[rnd.IntN(len(keys))]
				w, err := relabel(k.base.w, rnd)
				if err != nil {
					return nil, err
				}
				var buf bytes.Buffer
				if err := w.WriteJSON(&buf); err != nil {
					return nil, err
				}
				body, err := scheduleBody(buf.Bytes(), k.alg, k.budget)
				if err != nil {
					return nil, err
				}
				r = &mixReq{key: k, w: w, body: body, relabelled: true}
			}
			ops = append(ops, r)
		}
		mp.clients = append(mp.clients, ops)
		mp.keys += len(keys)
		if c == 0 {
			for _, b := range bases[:min(len(bases), len(mixFamilies)*len(sizes))] {
				mp.samples = append(mp.samples, replayInput{
					typ: b.typ, w: b.w, raw: b.raw,
					budget: b.anchors.BudgetFactors(5)[2] * b.anchors.CheapCost,
				})
			}
		}
	}
	return mp, nil
}

// scheduleBody encodes one POST /v1/schedule request on the default
// platform.
func scheduleBody(workflow []byte, alg string, budget float64) ([]byte, error) {
	return json.Marshal(map[string]any{
		"workflow":  json.RawMessage(workflow),
		"algorithm": alg,
		"budget":    budget,
	})
}

// relabel returns the same DAG with its tasks inserted in a random
// order and its edges remapped accordingly.
func relabel(w *wf.Workflow, rnd *rand.Rand) (*wf.Workflow, error) {
	n := w.NumTasks()
	order := rnd.Perm(n) // order[newID] = old ID
	newID := make([]wf.TaskID, n)
	for pos, old := range order {
		newID[old] = wf.TaskID(pos)
	}
	out := wf.New(w.Name)
	for _, old := range order {
		t := w.Task(wf.TaskID(old))
		id := out.AddTask(t.Name, t.Weight)
		if err := out.SetExternalIO(id, t.ExternalIn, t.ExternalOut); err != nil {
			return nil, err
		}
	}
	edges := w.Edges()
	rnd.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		if err := out.AddEdge(newID[e.From], newID[e.To], e.Size); err != nil {
			return nil, err
		}
	}
	return out, out.Validate()
}

// scheduleReply is the part of a /v1/schedule response the checks read.
type scheduleReply struct {
	Algorithm   string          `json:"algorithm"`
	Budget      float64         `json:"budget"`
	Schedule    json.RawMessage `json:"schedule"`
	NumVMs      int             `json:"numVMs"`
	EstMakespan float64         `json:"estMakespan"`
	EstCost     float64         `json:"estCost"`
	Cached      bool            `json:"cached"`
	Trace       json.RawMessage `json:"trace"`
}

// mixResult is one client-observed schedule op; reply is nil when the
// response did not decode.
type mixResult struct {
	op
	reply *scheduleReply
}

// sendSchedule posts one request and checks the response against the
// workflow that same request sent.
func sendSchedule(client *http.Client, url string, r *mixReq, ncats int) mixResult {
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return mixResult{op: op{latency: time.Since(t0), err: checkf("transport error", "%v", err)}}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return mixResult{op: op{latency: lat, err: checkf("transport error", "%v", err)}}
	}
	if resp.StatusCode != http.StatusOK {
		return mixResult{op: op{latency: lat, err: checkf("HTTP "+strconv.Itoa(resp.StatusCode), "%s", raw)}}
	}
	var rep scheduleReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return mixResult{op: op{latency: lat, err: checkf("undecodable response", "%v", err)}}
	}
	res := mixResult{op: op{latency: lat}, reply: &rep}
	res.err = checkSchedule(r, &rep, ncats)
	return res
}

// checkSchedule is the schedule-mix output check: the plan must decode
// and validate against the request's own workflow, echo the request,
// and carry finite, positive estimates. A plan that fails validation
// for its own request but validates for the first-seen variant of the
// same DAG is the plan cache serving another request's task numbering
// (ROADMAP defect D1), and is classified as such.
func checkSchedule(r *mixReq, rep *scheduleReply, ncats int) error {
	s, err := plan.ReadJSON(bytes.NewReader(rep.Schedule))
	if err != nil {
		return checkf("undecodable schedule", "%v", err)
	}
	if err := s.Validate(r.w, ncats); err != nil {
		if r.relabelled && rep.Cached && s.Validate(r.key.first.w, ncats) == nil {
			return checkf(classD1, "%v", err)
		}
		return checkf("invalid schedule", "%v", err)
	}
	switch {
	case rep.Algorithm != r.key.alg || rep.Budget != r.key.budget:
		return checkf("wrong echo", "got %s/%v, sent %s/%v", rep.Algorithm, rep.Budget, r.key.alg, r.key.budget)
	case rep.NumVMs != s.NumVMs():
		return checkf("wrong numVMs", "numVMs %d, schedule has %d VMs", rep.NumVMs, s.NumVMs())
	case !finite(rep.EstMakespan, rep.EstCost) || rep.EstMakespan <= 0 || rep.EstCost <= 0:
		return checkf("bad estimates", "makespan %v cost %v", rep.EstMakespan, rep.EstCost)
	}
	return nil
}

// classD1 names the failures of the known plan-cache defect.
const classD1 = "wrong schedule: cached plan in another request's task numbering (D1)"

// mixRun is one pass of the op list against a running daemon.
type mixRun struct {
	results [][]mixResult // per client
	wall    time.Duration
	scrapes []time.Duration
}

// runMixPass drives every client's op list to completion, closed loop,
// with the 1 Hz Prometheus scrape alongside. With traced set, every
// request asks for its span tree (?trace=1). The lists run in
// probeSegments segments; with m set, the host is probed before the
// first, between each two and after the last, while no request is in
// flight. wall is the summed segment time.
func runMixPass(url string, mp *mixPlan, traced bool, m *speedMeter) (*mixRun, error) {
	client := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: mixClients + 1},
	}
	defer client.CloseIdleConnections()
	target := url + "/v1/schedule"
	if traced {
		target += "?trace=1"
	}
	ncats := platform.Default().NumCategories()
	out := &mixRun{results: make([][]mixResult, len(mp.clients))}

	stop := make(chan struct{})
	var scrapeErr error
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			d, err := scrapePrometheus(client, url)
			if err != nil {
				scrapeErr = err
				return
			}
			out.scrapes = append(out.scrapes, d)
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	for c, ops := range mp.clients {
		out.results[c] = make([]mixResult, len(ops))
	}
	for seg := 0; seg < probeSegments; seg++ {
		m.probe()
		start := time.Now()
		var wg sync.WaitGroup
		for c, ops := range mp.clients {
			wg.Add(1)
			go func(res []mixResult, ops []*mixReq) {
				defer wg.Done()
				for i, r := range ops {
					res[i] = sendSchedule(client, target, r, ncats)
				}
			}(segment(out.results[c], seg), segment(ops, seg))
		}
		wg.Wait()
		out.wall += time.Since(start)
	}
	m.probe()
	close(stop)
	scrapeWG.Wait()
	if scrapeErr != nil {
		return nil, fmt.Errorf("metrics scrape: %w", scrapeErr)
	}
	return out, nil
}

// segment is the seg-th of probeSegments near-equal parts of xs.
func segment[T any](xs []T, seg int) []T {
	return xs[seg*len(xs)/probeSegments : (seg+1)*len(xs)/probeSegments]
}

// scrapePrometheus fetches the text exposition once.
func scrapePrometheus(client *http.Client, url string) (time.Duration, error) {
	t0 := time.Now()
	resp, err := client.Get(url + "/metrics?format=prometheus")
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("# TYPE ")) {
		return 0, fmt.Errorf("status %d, %d bytes", resp.StatusCode, len(body))
	}
	return d, nil
}

// mixDaemonArgs is the daemon under test: two workers, a queue deep
// enough that 2 clients never see a 429, and a plan cache that holds
// every distinct key of the op list, so no eviction — whose order
// would depend on client interleaving — decides a hit.
func mixDaemonArgs(mp *mixPlan) []string {
	return []string{"-workers", "2", "-queue", "64", "-cache-size", strconv.Itoa(mp.keys + 64), "-drain", "2s"}
}

// mixOpsPerClient sizes each client's op list.
func mixOpsPerClient(cfg config) int {
	n := int(cfg.seconds * mixOpsPerSecond / mixClients)
	if cfg.smoke {
		n = int(cfg.seconds * 10)
	}
	if n < 4 {
		n = 4
	}
	return n
}

// setupRepeats is how many times a run sets up, to report a median.
const setupRepeats = 15

// startRepeated starts the daemon set setupRepeats times, keeping the
// last; each start is timed from spawn to every /readyz answering.
func startRepeated(cfg config, mk func(i int) ([]int, [][]string, error)) ([]*daemon, []time.Duration, error) {
	var setups []time.Duration
	var ds []*daemon
	for i := 0; i < setupRepeats; i++ {
		if ds != nil {
			stopDaemons(ds)
		}
		ports, args, err := mk(i)
		if err != nil {
			return nil, nil, err
		}
		var d time.Duration
		ds, d, err = startDaemonsOn(cfg.daemon, cfg.work, ports, args...)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d)
	}
	return ds, setups, nil
}

func runScheduleMix(cfg config) (*outcome, error) {
	t0 := time.Now()
	mp, err := buildMixPlan(cfg.seed, mixOpsPerClient(cfg), cfg.smoke)
	if err != nil {
		return nil, err
	}
	logf("request pool: %d ops, %d distinct keys, built in %v", mixClients*len(mp.clients[0]), mp.keys, time.Since(t0).Round(time.Millisecond))
	meter := &speedMeter{}
	meter.probe()
	ds, setups, err := startRepeated(cfg, func(int) ([]int, [][]string, error) {
		p, err := freePort()
		return []int{p}, [][]string{mixDaemonArgs(mp)}, err
	})
	if err != nil {
		return nil, err
	}
	defer stopDaemons(ds)
	cpu0, err := usage(pids(ds))
	if err != nil {
		return nil, err
	}
	run, err := runMixPass(ds[0].url, mp, false, meter)
	if err != nil {
		return nil, err
	}
	cpu1, err := usage(pids(ds))
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS(pids(ds))
	if err != nil {
		return nil, err
	}
	o := &outcome{setups: setups, wall: run.wall, cpu: cpu1 - cpu0, rssMB: rss, meter: meter}
	for c, res := range run.results {
		for i, r := range res {
			o.ops = append(o.ops, r.op)
			if r.err != nil {
				continue
			}
			k := mp.clients[c][i].key
			met := 0.0
			if r.reply.EstCost <= k.budget {
				met = 1
			}
			o.quality.add(r.reply.EstMakespan/k.base.anchors.BaselineMakespan, r.reply.EstCost/k.budget, met)
		}
	}
	return o, nil
}
