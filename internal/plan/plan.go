// Package plan defines the schedule representation exchanged between
// the scheduling algorithms (internal/sched) and the discrete-event
// simulator (internal/sim): which VMs are provisioned, of which
// category, which VM runs each task, and in which order.
//
// Keeping this type in its own package breaks the dependency cycle
// that HEFTBUDG+ would otherwise create: the refinement algorithms in
// internal/sched evaluate candidate schedules by calling the simulator,
// and the simulator consumes schedules.
package plan

import (
	"fmt"

	"budgetwf/internal/wf"
)

// Unassigned marks a task without a VM in TaskVM.
const Unassigned = -1

// Schedule is a complete mapping of a workflow onto provisioned VMs.
type Schedule struct {
	// VMCats holds the platform category index of each provisioned VM;
	// len(VMCats) is the number of VMs.
	VMCats []int
	// TaskVM maps each task (by ID) to the index of its VM.
	TaskVM []int
	// ListT is the global priority order the scheduler used (HEFT rank
	// order for the HEFT family, assignment order for MIN-MIN). The
	// refinement algorithms iterate over it, and per-VM execution
	// orders are derived from it.
	ListT []wf.TaskID
	// Order gives, for each VM, the execution order of its tasks. It
	// is always consistent with ListT (stable-sorted by ListT rank).
	Order [][]wf.TaskID
	// EstMakespan and EstCost are the planner's own estimates under
	// conservative weights; the authoritative values come from the
	// simulator.
	EstMakespan float64
	EstCost     float64
}

// New returns an empty schedule for n tasks.
func New(n int) *Schedule {
	s := &Schedule{TaskVM: make([]int, n)}
	for i := range s.TaskVM {
		s.TaskVM[i] = Unassigned
	}
	return s
}

// NumVMs returns the number of provisioned VMs.
func (s *Schedule) NumVMs() int { return len(s.VMCats) }

// AddVM provisions a VM of the given category and returns its index.
func (s *Schedule) AddVM(cat int) int {
	s.VMCats = append(s.VMCats, cat)
	s.resizeOrder(len(s.Order) + 1)
	return len(s.VMCats) - 1
}

// Assign places a task on a VM, appending it to the VM's order.
func (s *Schedule) Assign(t wf.TaskID, vmIdx int) {
	s.TaskVM[t] = vmIdx
	s.Order[vmIdx] = append(s.Order[vmIdx], t)
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{
		VMCats:      append([]int(nil), s.VMCats...),
		TaskVM:      append([]int(nil), s.TaskVM...),
		ListT:       append([]wf.TaskID(nil), s.ListT...),
		EstMakespan: s.EstMakespan,
		EstCost:     s.EstCost,
	}
	c.Order = make([][]wf.TaskID, len(s.Order))
	for i, o := range s.Order {
		c.Order[i] = append([]wf.TaskID(nil), o...)
	}
	return c
}

// CopyFrom makes s a deep copy of src, reusing s's buffers: once they
// have grown to src's sizes, copying allocates nothing. The refinement
// algorithms build every candidate move this way in one Schedule.
func (s *Schedule) CopyFrom(src *Schedule) {
	s.VMCats = append(s.VMCats[:0], src.VMCats...)
	s.TaskVM = append(s.TaskVM[:0], src.TaskVM...)
	s.ListT = append(s.ListT[:0], src.ListT...)
	s.resizeOrder(len(src.Order))
	for i, o := range src.Order {
		s.Order[i] = append(s.Order[i][:0], o...)
	}
	s.EstMakespan = src.EstMakespan
	s.EstCost = src.EstCost
}

// resizeOrder sets len(s.Order) to k. Orders it adds are empty but
// keep, for reuse, the backing arrays left beyond the old length; like
// every order built by this package, each belongs to s alone.
func (s *Schedule) resizeOrder(k int) {
	old := len(s.Order)
	for cap(s.Order) < k {
		s.Order = append(s.Order[:cap(s.Order)], nil)
	}
	s.Order = s.Order[:k]
	for i := old; i < k; i++ {
		s.Order[i] = s.Order[i][:0]
	}
}

// RebuildOrder recomputes every VM's execution order from TaskVM and
// ListT: tasks on one VM run in ListT-rank order. The refinement
// algorithms call this after moving a task between VMs. Tasks missing
// from ListT keep relative ID order after listed ones; in practice
// ListT always covers all tasks. The orders are fresh slices, so any
// that the old ones shared stay untouched.
func (s *Schedule) RebuildOrder() {
	s.Order = nil
	new(Scratch).RebuildOrder(s)
}

// CompactVMs removes VMs with no assigned task, renumbering TaskVM,
// and rebuilds the orders as RebuildOrder does. The refinement
// algorithms can leave a VM empty after moving its last task away; an
// empty VM must not be billed.
func (s *Schedule) CompactVMs() {
	s.Order = nil
	new(Scratch).CompactVMs(s)
}

// Validate checks the schedule against a workflow and a category
// count: every task assigned to a valid VM, orders consistent with
// TaskVM and free of duplicates, and every per-VM order topologically
// consistent (no task placed after one of its descendants on the same
// VM, which would deadlock execution).
func (s *Schedule) Validate(w *wf.Workflow, numCats int) error {
	return new(Scratch).Validate(s, w, numCats)
}

// Scratch is reusable working memory for RebuildOrder, CompactVMs and
// Validate. Code that runs them once per candidate schedule keeps one
// Scratch so they allocate nothing once its buffers have grown. The
// zero value is ready to use; a Scratch is not safe for concurrent use.
type Scratch struct {
	rank  []int // ListT position per task, -1 if unlisted
	remap []int // old VM index → compacted index
	seen  []bool
	pos   []int // position of each task in its VM's order
}

// ints returns buf resized to n, reallocating only when it must grow.
func ints(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// RebuildOrder is Schedule.RebuildOrder on sc's buffers, rewriting
// s.Order in place: each order must own its backing array, as those
// built by AddVM, Assign, Clone, CopyFrom and this method do. One
// linear pass over ListT places each task in its VM's order at its
// ListT rank, then one pass appends the unlisted tasks in ID order. A
// task listed twice takes the rank of its last occurrence; IDs outside
// the workflow are ignored.
func (sc *Scratch) RebuildOrder(s *Schedule) {
	n := len(s.TaskVM)
	sc.rank = ints(sc.rank, n)
	rank := sc.rank
	for t := range rank {
		rank[t] = -1
	}
	for i, t := range s.ListT {
		if t >= 0 && int(t) < n {
			rank[t] = i
		}
	}
	s.resizeOrder(len(s.VMCats))
	for vm := range s.Order {
		s.Order[vm] = s.Order[vm][:0]
	}
	for i, t := range s.ListT {
		if t >= 0 && int(t) < n && rank[t] == i {
			if vm := s.TaskVM[t]; vm != Unassigned {
				s.Order[vm] = append(s.Order[vm], t)
			}
		}
	}
	for t, vm := range s.TaskVM {
		if rank[t] < 0 && vm != Unassigned {
			s.Order[vm] = append(s.Order[vm], wf.TaskID(t))
		}
	}
}

// CompactVMs is Schedule.CompactVMs on sc's buffers; it renumbers the
// VMs in place and then rebuilds the orders in place with
// sc.RebuildOrder.
func (sc *Scratch) CompactVMs(s *Schedule) {
	sc.remap = ints(sc.remap, len(s.VMCats))
	remap := sc.remap
	for i := range remap {
		remap[i] = Unassigned
	}
	for _, vm := range s.TaskVM {
		if vm != Unassigned {
			remap[vm] = 0 // used
		}
	}
	k := 0
	for i, r := range remap {
		if r != Unassigned {
			remap[i] = k
			s.VMCats[k] = s.VMCats[i]
			k++
		}
	}
	s.VMCats = s.VMCats[:k]
	for t, vm := range s.TaskVM {
		if vm != Unassigned {
			s.TaskVM[t] = remap[vm]
		}
	}
	sc.RebuildOrder(s)
}

// Validate is Schedule.Validate on sc's buffers: the same checks, in
// the same order, with the same errors.
func (sc *Scratch) Validate(s *Schedule, w *wf.Workflow, numCats int) error {
	n := w.NumTasks()
	if len(s.TaskVM) != n {
		return fmt.Errorf("plan: TaskVM has %d entries, workflow has %d tasks", len(s.TaskVM), n)
	}
	for i, cat := range s.VMCats {
		if cat < 0 || cat >= numCats {
			return fmt.Errorf("plan: VM %d has invalid category %d", i, cat)
		}
	}
	for t, vm := range s.TaskVM {
		if vm == Unassigned {
			return fmt.Errorf("plan: task %d unassigned", t)
		}
		if vm < 0 || vm >= len(s.VMCats) {
			return fmt.Errorf("plan: task %d assigned to invalid VM %d", t, vm)
		}
	}
	if len(s.Order) != len(s.VMCats) {
		return fmt.Errorf("plan: Order has %d VMs, VMCats has %d", len(s.Order), len(s.VMCats))
	}
	if cap(sc.seen) < n {
		sc.seen = make([]bool, n)
	}
	seen := sc.seen[:n]
	clear(seen)
	for vmIdx, order := range s.Order {
		for _, t := range order {
			if int(t) < 0 || int(t) >= n {
				return fmt.Errorf("plan: VM %d order mentions invalid task %d", vmIdx, t)
			}
			if seen[t] {
				return fmt.Errorf("plan: task %d appears twice in orders", t)
			}
			seen[t] = true
			if s.TaskVM[t] != vmIdx {
				return fmt.Errorf("plan: task %d in VM %d order but TaskVM says %d", t, vmIdx, s.TaskVM[t])
			}
		}
	}
	for t := 0; t < n; t++ {
		if !seen[t] {
			return fmt.Errorf("plan: task %d missing from VM orders", t)
		}
	}
	// Per-VM order must respect the precedence relation restricted to
	// tasks sharing a VM; otherwise the FIFO executor deadlocks.
	sc.pos = ints(sc.pos, n)
	pos := sc.pos
	for _, order := range s.Order {
		for i, t := range order {
			pos[t] = i
		}
	}
	for _, e := range w.EdgesView() {
		if s.TaskVM[e.From] == s.TaskVM[e.To] && pos[e.From] >= pos[e.To] {
			return fmt.Errorf("plan: VM %d runs task %d before its predecessor %d", s.TaskVM[e.To], e.To, e.From)
		}
	}
	return nil
}
