package sim

import (
	"fmt"
	"math"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
)

// eventKind discriminates entries of the fixed-event heap.
type eventKind uint8

const (
	evBootDone eventKind = iota
	evComputeDone
	evFlowDone // only used when the datacenter bandwidth is unbounded
)

// event is pointer-free, so sifting the heap moves plain words: no GC
// write barriers, and the backing array is never scanned. A flow is
// named by its index in the engine's flow arena.
type event struct {
	time float64
	seq  int // insertion order, for deterministic tie-breaking
	vm   int32
	task int32 // wf.TaskID
	flow int32 // flowArena index (evFlowDone only)
	kind eventKind
}

// eventHeap is a hand-rolled binary min-heap of event values ordered
// by (time, seq). container/heap would box every Push/Pop through
// interface{}, allocating per event on the Monte Carlo hot path; this
// keeps events in one reusable backing array.
type eventHeap []event

func (a *event) before(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push and pop move a hole instead of swapping, writing each displaced
// event once. (time, seq) is a strict total order, so the pop sequence
// is the same as any other correct heap's.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(&s[c]) {
			c = r
		}
		if !s[c].before(&last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = last
	}
	return top
}

// flowKind discriminates data movements.
type flowKind int

const (
	flowStaging flowKind = iota // datacenter → VM, serialized before compute
	flowUpload                  // VM → datacenter, asynchronous
)

// flow is one data movement. In unbounded-DC mode its completion time
// is known at creation; in fluid mode remaining/rate evolve.
type flow struct {
	kind      flowKind
	vm        int       // staging: destination; upload: source
	task      wf.TaskID // staging: consumer; upload: producer
	edge      int       // upload: edge index, or -1 for an external output
	remaining float64
	rate      float64
	seq       int
}

// vmState tracks one VM through the simulation.
type vmState struct {
	cat      int
	queue    []wf.TaskID
	next     int
	booked   bool
	booting  bool
	bookTime float64
	bootDone float64
	busy     bool // staging or computing
	freeAt   float64
	prevTask wf.TaskID // last completed task, for blame
	hasPrev  bool
	end      float64 // H_end,v so far
	busyTime float64 // accumulated staging + compute time
}

// engine is the deterministic executor. Its state has three lifetimes:
// the workflow/platform part is built once by newEngine, the schedule
// part by bind, and the per-run part is rewound by reset. A Runner
// keeps one engine for every schedule it is retargeted to and every
// execution it replays; the one-shot entry points build one per call.
type engine struct {
	// Bound once by newEngine.
	w        *wf.Workflow
	p        *platform.Platform
	fluid    bool
	outEdges [][]wf.Edge // cached successor edges (wf.Succ allocates)
	extOut   []float64   // cached external output volumes

	// Bound per schedule by bind.
	s         *plan.Schedule // nil until a bind succeeds
	stageSize []float64      // bytes to stage before computing (incl. external in)
	missing0  []int          // initial count of crossing inputs per task
	maxSteps  int
	check     plan.Scratch // Validate's buffers

	// Per run, rewound by reset.
	weights   []float64
	now       float64
	seq       int
	events    eventHeap
	flows     []int32 // active fluid flows (fluid mode only), arena indices
	flowArena []flow  // every flow of the run, named by index
	doneBuf   []int32 // scratch for advanceFlows

	vms []vmState

	// Per-task bookkeeping.
	missing      []int // crossing inputs not yet at the datacenter
	dcReadyTime  []float64
	dcReadyPred  []wf.TaskID
	hasDCPred    []bool
	times        []TaskTimes
	blames       []Blame
	doneCount    int
	finishedTask []bool
	xferCost     float64 // inter-provider per-byte surcharges accrued

	result Result // reused by collect()
}

// newEngine validates the platform, builds the workflow-bound caches
// and binds s.
func newEngine(w *wf.Workflow, p *platform.Platform, s *plan.Schedule) (*engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := w.NumTasks()
	e := &engine{
		w:            w,
		p:            p,
		fluid:        p.DCBandwidth > 0,
		outEdges:     make([][]wf.Edge, n),
		extOut:       make([]float64, n),
		stageSize:    make([]float64, n),
		missing0:     make([]int, n),
		missing:      make([]int, n),
		dcReadyTime:  make([]float64, n),
		dcReadyPred:  make([]wf.TaskID, n),
		hasDCPred:    make([]bool, n),
		times:        make([]TaskTimes, n),
		blames:       make([]Blame, n),
		finishedTask: make([]bool, n),
	}
	for t := 0; t < n; t++ {
		e.extOut[t] = w.Task(wf.TaskID(t)).ExternalOut
		e.outEdges[t] = w.Succ(wf.TaskID(t))
	}
	if err := e.bind(s); err != nil {
		return nil, err
	}
	return e, nil
}

// bind validates s against the engine's workflow and platform and
// derives the schedule-dependent state in place: staging volumes,
// crossing-input counts and the arena and step bounds. Per-VM state
// and the flow arena are reallocated only when they must grow. On an
// invalid schedule the engine is left unbound. The engine reads s
// during every later run, so s must not change until the next bind.
func (e *engine) bind(s *plan.Schedule) error {
	e.s = nil
	if err := e.check.Validate(s, e.w, e.p.NumCategories()); err != nil {
		return err
	}
	for t, task := range e.w.TasksView() {
		e.stageSize[t] = task.ExternalIn
		e.missing0[t] = 0
	}
	// Edges in insertion order visit each task's inputs in wf.Pred
	// order, so the staging sums round exactly as a per-task loop would.
	crossEdges := 0
	for _, edge := range e.w.EdgesView() {
		if s.TaskVM[edge.From] != s.TaskVM[edge.To] {
			e.stageSize[edge.To] += edge.Size
			e.missing0[edge.To]++
			crossEdges++
		}
	}
	n := len(e.stageSize)
	e.maxSteps = 16 * (n + e.w.NumEdges() + s.NumVMs() + 16)
	// One staging flow per task, one upload per crossing edge, one
	// external-output upload per task, at most.
	if flowCap := 2*n + crossEdges; cap(e.flowArena) < flowCap {
		e.flowArena = make([]flow, 0, flowCap)
	}
	if cap(e.vms) < s.NumVMs() {
		e.vms = make([]vmState, s.NumVMs())
	}
	e.vms = e.vms[:s.NumVMs()]
	e.s = s
	return nil
}

// reset rewinds the engine to time zero with the given realized
// weights, reusing every buffer allocated by newEngine and bind.
func (e *engine) reset(weights []float64) error {
	for t, wt := range weights {
		if wt <= 0 || math.IsNaN(wt) || math.IsInf(wt, 0) {
			return fmt.Errorf("sim: task %d has invalid weight %v", t, wt)
		}
	}
	e.weights = weights
	e.now = 0
	e.seq = 0
	e.events = e.events[:0]
	e.flows = e.flows[:0]
	e.flowArena = e.flowArena[:0]
	e.doneCount = 0
	e.xferCost = 0
	s := e.s
	for i := range e.vms {
		e.vms[i] = vmState{cat: s.VMCats[i], queue: s.Order[i]}
	}
	copy(e.missing, e.missing0)
	for t := range e.dcReadyTime {
		e.dcReadyTime[t] = 0
		e.dcReadyPred[t] = 0
		e.hasDCPred[t] = false
		e.times[t] = TaskTimes{}
		e.blames[t] = Blame{}
		e.finishedTask[t] = false
	}
	return nil
}

func (e *engine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	e.events.push(ev)
}

// newFlow places f in the arena and returns its index. bind sizes the
// arena for every flow a run can create; should it ever grow anyway,
// indices stay valid where pointers would not.
func (e *engine) newFlow(f flow) int32 {
	e.flowArena = append(e.flowArena, f)
	return int32(len(e.flowArena) - 1)
}

// startFlow begins a data movement of size bytes. Zero-size flows
// complete synchronously via the caller's follow-up logic, so callers
// must not create them.
func (e *engine) startFlow(fi int32) {
	f := &e.flowArena[fi]
	f.seq = e.seq
	e.seq++
	// Every flow crosses the VM↔DC link of the flow's VM; on a market
	// platform that means the VM provider's bandwidth, a fixed
	// inter-provider latency, and a per-byte transfer surcharge. All
	// three degenerate to the scalar model (latency 0, surcharge 0,
	// CatBandwidth == Bandwidth) on single-provider platforms.
	cat := e.vms[f.vm].cat
	e.xferCost += f.remaining * e.p.XferCost(cat)
	if !e.fluid {
		e.push(event{time: e.now + e.p.XferLat(cat) + f.remaining/e.p.CatBandwidth(cat), kind: evFlowDone, flow: fi})
		return
	}
	e.flows = append(e.flows, fi)
}

// assignRates implements max-min fair sharing of the datacenter
// bandwidth across active flows, each additionally capped by the
// per-VM link bandwidth.
func (e *engine) assignRates() {
	k := len(e.flows)
	if k == 0 {
		return
	}
	share := e.p.DCBandwidth / float64(k)
	rate := math.Min(e.p.Bandwidth, share)
	// If the per-link cap binds for every flow, the aggregate is under
	// the DC cap and everyone gets the link rate; otherwise the equal
	// DC share applies (all flows have the same cap, so max-min fair
	// sharing reduces to the minimum of the two).
	for _, fi := range e.flows {
		e.flowArena[fi].rate = rate
	}
}

// advanceFlows moves fluid flows forward by dt and returns those that
// completed, preserving creation order for determinism. The returned
// slice is scratch, valid until the next call.
func (e *engine) advanceFlows(dt float64) []int32 {
	done := e.doneBuf[:0]
	remainingFlows := e.flows[:0]
	for _, fi := range e.flows {
		f := &e.flowArena[fi]
		f.remaining -= f.rate * dt
		if f.remaining <= 1e-9 {
			f.remaining = 0
			done = append(done, fi)
		} else {
			remainingFlows = append(remainingFlows, fi)
		}
	}
	e.flows = remainingFlows
	e.doneBuf = done
	return done
}

// tryAdvance examines the head task of VM v and starts whatever phase
// can start now: booking, staging, or computing.
func (e *engine) tryAdvance(v int) {
	vm := &e.vms[v]
	if vm.next >= len(vm.queue) || vm.busy || vm.booting {
		return
	}
	t := vm.queue[vm.next]
	if e.missing[t] > 0 {
		return // inputs still on their way to the datacenter
	}
	if !vm.booked {
		// Book the VM now: its first task's data is at the datacenter.
		vm.booked = true
		vm.booting = true
		vm.bookTime = e.now
		vm.bootDone = e.now + e.p.CatBootTime(vm.cat)
		e.push(event{time: vm.bootDone, kind: evBootDone, vm: int32(v)})
		return
	}
	// VM is booted and idle: start staging (or compute directly).
	vm.busy = true
	e.times[t].StageStart = e.now
	e.blames[t] = e.blameFor(v, t)
	if e.stageSize[t] > 0 {
		e.startFlow(e.newFlow(flow{kind: flowStaging, vm: v, task: t, edge: -1, remaining: e.stageSize[t]}))
		return
	}
	e.startCompute(v, t)
}

// blameFor decides which constraint bound the start of task t on VM v.
func (e *engine) blameFor(v int, t wf.TaskID) Blame {
	vm := &e.vms[v]
	dataT := e.dcReadyTime[t]
	if vm.hasPrev {
		if vm.freeAt >= dataT || !e.hasDCPred[t] {
			return Blame{Kind: BlameVMBusy, Pred: vm.prevTask}
		}
		return Blame{Kind: BlameDataArrival, Pred: e.dcReadyPred[t]}
	}
	// First task on the VM: the boot always completes after the data
	// is at the datacenter (booking rule), so blame the data chain if
	// there is one.
	if e.hasDCPred[t] {
		return Blame{Kind: BlameDataArrival, Pred: e.dcReadyPred[t]}
	}
	return Blame{Kind: BlameNone}
}

func (e *engine) startCompute(v int, t wf.TaskID) {
	e.times[t].ComputeStart = e.now
	dur := e.weights[t] / e.p.Categories[e.vms[v].cat].Speed
	e.push(event{time: e.now + dur, kind: evComputeDone, vm: int32(v), task: int32(t)})
}

func (e *engine) finishCompute(v int, t wf.TaskID) {
	vm := &e.vms[v]
	e.times[t].Finish = e.now
	e.finishedTask[t] = true
	e.doneCount++
	vm.busyTime += e.now - e.times[t].StageStart
	vm.busy = false
	vm.freeAt = e.now
	vm.prevTask = t
	vm.hasPrev = true
	if e.now > vm.end {
		vm.end = e.now
	}
	// Launch uploads for consumers on other VMs and external outputs.
	for ei, edge := range e.outEdges[t] {
		if e.s.TaskVM[edge.From] == e.s.TaskVM[edge.To] {
			continue // data stays local
		}
		if edge.Size == 0 {
			e.uploadArrived(v, edge)
			continue
		}
		e.startFlow(e.newFlow(flow{kind: flowUpload, vm: v, task: t, edge: ei, remaining: edge.Size}))
	}
	if out := e.extOut[t]; out > 0 {
		e.startFlow(e.newFlow(flow{kind: flowUpload, vm: v, task: t, edge: -1, remaining: out}))
	}
	vm.next++
	e.tryAdvance(v)
}

// uploadArrived records that edge's payload reached the datacenter and
// wakes the consumer's VM if the consumer became ready.
func (e *engine) uploadArrived(srcVM int, edge wf.Edge) {
	if e.now > e.vms[srcVM].end {
		e.vms[srcVM].end = e.now
	}
	t := edge.To
	e.missing[t]--
	if e.now >= e.dcReadyTime[t] {
		e.dcReadyTime[t] = e.now
		e.dcReadyPred[t] = edge.From
		e.hasDCPred[t] = true
	}
	if e.missing[t] == 0 {
		e.tryAdvance(e.s.TaskVM[t])
	}
}

func (e *engine) handleFlowDone(fi int32) {
	// Copy: the handlers below may start flows and grow the arena.
	f := e.flowArena[fi]
	if f.kind == flowStaging {
		e.startCompute(f.vm, f.task)
		return
	}
	// Upload.
	if f.edge >= 0 {
		edges := e.outEdges[f.task]
		e.uploadArrived(f.vm, edges[f.edge])
		return
	}
	// External output: only extends the source VM's life.
	if e.now > e.vms[f.vm].end {
		e.vms[f.vm].end = e.now
	}
}

func (e *engine) run() (*Result, error) {
	n := e.w.NumTasks()
	for v := range e.vms {
		e.tryAdvance(v)
	}
	guard := 0
	maxSteps := e.maxSteps
	for e.doneCount < n || len(e.flows) > 0 || len(e.events) > 0 {
		guard++
		if guard > maxSteps {
			return nil, fmt.Errorf("sim: exceeded %d steps; schedule is livelocked", maxSteps)
		}
		var nextFixed float64 = math.Inf(1)
		if len(e.events) > 0 {
			nextFixed = e.events[0].time
		}
		if e.fluid && len(e.flows) > 0 {
			e.assignRates()
			nextFlow := math.Inf(1)
			for _, fi := range e.flows {
				f := &e.flowArena[fi]
				if c := f.remaining / f.rate; c < nextFlow {
					nextFlow = c
				}
			}
			if e.now+nextFlow < nextFixed {
				done := e.advanceFlows(nextFlow)
				e.now += nextFlow
				for _, fi := range done {
					e.handleFlowDone(fi)
				}
				continue
			}
			// A fixed event comes first: advance flows to that instant.
			if !math.IsInf(nextFixed, 1) {
				done := e.advanceFlows(nextFixed - e.now)
				e.now = nextFixed
				for _, fi := range done {
					e.handleFlowDone(fi)
				}
			}
		}
		if len(e.events) == 0 {
			if e.doneCount < n && len(e.flows) == 0 {
				return nil, fmt.Errorf("sim: deadlock with %d/%d tasks finished", e.doneCount, n)
			}
			continue
		}
		ev := e.events.pop()
		if ev.time < e.now-1e-9 {
			return nil, fmt.Errorf("sim: time went backwards: %v -> %v", e.now, ev.time)
		}
		if ev.time > e.now {
			e.now = ev.time
		}
		switch ev.kind {
		case evBootDone:
			vm := &e.vms[ev.vm]
			vm.booting = false
			vm.freeAt = e.now
			e.tryAdvance(int(ev.vm))
		case evComputeDone:
			e.finishCompute(int(ev.vm), wf.TaskID(ev.task))
		case evFlowDone:
			e.handleFlowDone(ev.flow)
		}
	}
	if e.doneCount < n {
		return nil, fmt.Errorf("sim: deadlock with %d/%d tasks finished", e.doneCount, n)
	}
	return e.collect(), nil
}

// collect assembles the engine's reused Result. Its slices alias the
// engine's buffers: valid until the engine is reset (one-shot entry
// points never reset, so their Results are stable).
func (e *engine) collect() *Result {
	res := &e.result
	*res = Result{Tasks: e.times, Blames: e.blames, VMs: res.VMs[:0]}
	firstBook := math.Inf(1)
	lastEvent := 0.0
	for i := range e.vms {
		vm := &e.vms[i]
		if !vm.booked {
			// A VM with no task never gets booked and costs nothing;
			// Validate prevents empty VMs, so this is defensive.
			continue
		}
		if vm.bookTime < firstBook {
			firstBook = vm.bookTime
		}
		if vm.end > lastEvent {
			lastEvent = vm.end
		}
		cost := e.p.VMCost(vm.cat, vm.bootDone, vm.end)
		res.VMs = append(res.VMs, VMUsage{
			Cat:      vm.cat,
			Book:     vm.bookTime,
			Start:    vm.bootDone,
			End:      vm.end,
			Cost:     cost,
			NumTasks: len(vm.queue),
			Busy:     vm.busyTime,
		})
	}
	if math.IsInf(firstBook, 1) {
		firstBook = 0
	}
	res.FirstBook = firstBook
	res.LastEvent = lastEvent
	res.Makespan = lastEvent - firstBook
	res.DCCost = e.p.DCCost(e.w.ExternalInSize(), e.w.ExternalOutSize(), firstBook, lastEvent)
	res.XferCost = e.xferCost
	res.TotalCost = res.DCCost + res.VMCost() + res.XferCost
	return res
}
