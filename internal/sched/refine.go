package sched

import (
	"fmt"

	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
)

// HeftBudgPlus is Algorithm 5 (HEFTBUDG+): starting from the HEFTBUDG
// schedule, reconsider every task in priority (ListT) order; for each,
// try moving it to every other used VM and to a fresh VM of each
// category, re-simulate the whole schedule deterministically, and keep
// the move with the shortest makespan that still respects the initial
// budget. This spends the budget fraction left over by HEFTBUDG's
// conservative reservations, at an O(n) multiplicative CPU cost.
func HeftBudgPlus(w *wf.Workflow, p *platform.Platform, budget float64) (*plan.Schedule, error) {
	return refine(w, p, budget, false, Options{})
}

// HeftBudgPlusInv is HEFTBUDG+INV: identical to HEFTBUDG+ but
// re-considering tasks in reverse priority order, which the paper
// found to help when leftover budget is best spent near the workflow's
// end.
func HeftBudgPlusInv(w *wf.Workflow, p *platform.Platform, budget float64) (*plan.Schedule, error) {
	return refine(w, p, budget, true, Options{})
}

func refine(w *wf.Workflow, p *platform.Platform, budget float64, inverse bool, opt Options) (*plan.Schedule, error) {
	cur, err := HeftBudgOpt(w, p, budget, Options{stop: opt.stop, span: opt.span})
	if err != nil {
		return nil, err
	}
	m, res, err := newMover(w, p, cur)
	if err != nil {
		return nil, fmt.Errorf("sched: simulating HEFTBUDG schedule: %w", err)
	}
	minMakespan := res.Makespan

	span := opt.span.Child("refine")
	span.Set(obs.Bool("inverse", inverse), obs.Float("baseMakespan", minMakespan))
	defer span.End()

	order := append([]wf.TaskID(nil), cur.ListT...)
	if inverse {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}

	moves, upgrades := 0, 0
	for _, t := range order {
		best := -1 // target of the best move of t so far
		for target := range m.targets(cur) {
			if target == cur.TaskVM[t] {
				continue
			}
			if err := opt.stopErr(); err != nil {
				return nil, err
			}
			moves++
			r, err := m.try(cur, t, target)
			if err != nil {
				// A malformed candidate (should not happen: moves keep
				// ListT-derived orders topological) is simply skipped.
				continue
			}
			if r.Makespan < minMakespan && r.TotalCost < budget {
				best = target
				if span != nil {
					upgrades++
					span.Event("upgrade",
						obs.Int("task", int(t)),
						obs.Int("toVM", m.cand.TaskVM[t]),
						obs.Float("makespanBefore", minMakespan),
						obs.Float("makespanAfter", r.Makespan),
						obs.Float("cost", r.TotalCost))
				}
				minMakespan = r.Makespan
			}
		}
		if best >= 0 {
			m.build(cur, t, best)
			cur = m.cand.Clone()
		}
	}
	span.Set(obs.Int("movesTried", moves), obs.Int("upgrades", upgrades),
		obs.Float("finalMakespan", minMakespan))
	cur.EstMakespan = minMakespan
	return cur, nil
}

// mover evaluates the candidate moves of the refinement algorithms on
// one reused candidate schedule and one retargeted sim.Runner, so a
// candidate costs a copy, a linear order rebuild, a full Validate and
// a deterministic simulation, and allocates nothing once the buffers
// have grown. Callers remember the best move and rebuild and Clone it
// once they keep it.
type mover struct {
	runner  *sim.Runner
	weights []float64 // conservative, shared by every candidate
	cand    plan.Schedule
	scratch plan.Scratch
	numCats int
}

// newMover binds a mover to the workflow and platform and simulates s
// under conservative weights, the result every move is compared with.
// The result aliases the mover's engine: read it before the first try.
func newMover(w *wf.Workflow, p *platform.Platform, s *plan.Schedule) (*mover, *sim.Result, error) {
	runner, err := sim.NewRunner(w, p, s)
	if err != nil {
		return nil, nil, err
	}
	m := &mover{runner: runner, weights: sim.ConservativeWeights(w), numCats: p.NumCategories()}
	res, err := m.runner.Run(m.weights)
	if err != nil {
		return nil, nil, err
	}
	return m, res, nil
}

// targets is the number of move targets of a task of s (Algorithm 5,
// line 7: (UsedVM \ sched(T)) ∪ NewVM): targets below s.NumVMs() are
// used VMs, the rest a fresh VM of category target−s.NumVMs(). The
// task's own VM is a target too; callers skip it.
func (m *mover) targets(s *plan.Schedule) int { return s.NumVMs() + m.numCats }

// build makes m.cand the schedule s with task t moved to target: a VM
// left empty is deprovisioned and per-VM orders rebuilt from ListT.
func (m *mover) build(s *plan.Schedule, t wf.TaskID, target int) {
	c := &m.cand
	c.CopyFrom(s)
	if k := s.NumVMs(); target >= k {
		target = c.AddVM(target - k)
	}
	c.TaskVM[t] = target
	m.scratch.CompactVMs(c)
}

// try builds the move of t to target and simulates it. The result
// aliases the Runner and is valid until the next try.
func (m *mover) try(s *plan.Schedule, t wf.TaskID, target int) (*sim.Result, error) {
	m.build(s, t, target)
	if err := m.runner.Retarget(&m.cand); err != nil {
		return nil, err
	}
	return m.runner.Run(m.weights)
}
