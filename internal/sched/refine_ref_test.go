package sched

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// refineReference is the straightforward HEFTBUDG+/INV loop: every
// candidate is a fresh Clone, compacted and re-sorted, and simulated
// by a fresh sim.Run. The optimized refine must pick the same moves.
// It lives in the test files only.
func refineReference(w *wf.Workflow, p *platform.Platform, budget float64, inverse bool) (*plan.Schedule, error) {
	cur, err := HeftBudgOpt(w, p, budget, Options{})
	if err != nil {
		return nil, err
	}
	weights := sim.ConservativeWeights(w)
	res, err := sim.Run(w, p, cur, weights)
	if err != nil {
		return nil, err
	}
	minMakespan := res.Makespan
	order := append([]wf.TaskID(nil), cur.ListT...)
	if inverse {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	for _, t := range order {
		best := cur
		for _, cand := range moveCandidatesRef(cur, t, p.NumCategories()) {
			r, err := sim.Run(w, p, cand, weights)
			if err != nil {
				continue
			}
			if r.Makespan < minMakespan && r.TotalCost < budget {
				best = cand
				minMakespan = r.Makespan
			}
		}
		cur = best
	}
	cur.EstMakespan = minMakespan
	return cur, nil
}

// cgPlusReference is the straightforward CG+ loop on the same
// candidate generator.
func cgPlusReference(w *wf.Workflow, p *platform.Platform, budget float64) (*plan.Schedule, error) {
	cur, err := cgOpt(w, p, budget, Options{})
	if err != nil {
		return nil, err
	}
	res, err := sim.RunDeterministic(w, p, cur)
	if err != nil {
		return nil, err
	}
	for iter := 0; iter < 4*w.NumTasks(); iter++ {
		var bestSched *plan.Schedule
		var bestRes *sim.Result
		bestRatio := 0.0
		for _, t := range res.CriticalPath() {
			for _, cand := range moveCandidatesRef(cur, t, p.NumCategories()) {
				r, err := sim.RunDeterministic(w, p, cand)
				if err != nil {
					continue
				}
				dT := res.Makespan - r.Makespan
				dC := r.TotalCost - res.TotalCost
				if dT <= 0 || dC <= 0 || r.TotalCost > budget {
					continue
				}
				if ratio := dT / dC; bestSched == nil || ratio > bestRatio {
					bestSched, bestRes, bestRatio = cand, r, ratio
				}
			}
		}
		if bestSched == nil {
			break
		}
		cur, res = bestSched, bestRes
	}
	cur.EstMakespan = res.Makespan
	cur.EstCost = res.TotalCost
	return cur, nil
}

// moveCandidatesRef generates every schedule obtained by moving task t
// to a different used VM or to a fresh VM of each category, each a
// compacted Clone with orders rebuilt by rebuildOrderRef.
func moveCandidatesRef(s *plan.Schedule, t wf.TaskID, numCats int) []*plan.Schedule {
	var out []*plan.Schedule
	for vm := range s.VMCats {
		if vm == s.TaskVM[t] {
			continue
		}
		c := s.Clone()
		c.TaskVM[t] = vm
		compactVMsRef(c)
		out = append(out, c)
	}
	for cat := 0; cat < numCats; cat++ {
		c := s.Clone()
		c.TaskVM[t] = c.AddVM(cat)
		compactVMsRef(c)
		out = append(out, c)
	}
	return out
}

// compactVMsRef drops empty VMs into fresh slices and rebuilds the
// orders with rebuildOrderRef.
func compactVMsRef(s *plan.Schedule) {
	used := make([]bool, len(s.VMCats))
	for _, vm := range s.TaskVM {
		if vm != plan.Unassigned {
			used[vm] = true
		}
	}
	remap := make([]int, len(s.VMCats))
	var cats []int
	for i, u := range used {
		if u {
			remap[i] = len(cats)
			cats = append(cats, s.VMCats[i])
		} else {
			remap[i] = plan.Unassigned
		}
	}
	for t, vm := range s.TaskVM {
		if vm != plan.Unassigned {
			s.TaskVM[t] = remap[vm]
		}
	}
	s.VMCats = cats
	rebuildOrderRef(s)
}

// rebuildOrderRef rebuilds the orders with a rank map and
// sort.SliceStable; the linear plan.Scratch.RebuildOrder must agree.
func rebuildOrderRef(s *plan.Schedule) {
	rank := make(map[wf.TaskID]int, len(s.ListT))
	for i, t := range s.ListT {
		rank[t] = i
	}
	s.Order = make([][]wf.TaskID, len(s.VMCats))
	for task, vm := range s.TaskVM {
		if vm == plan.Unassigned {
			continue
		}
		s.Order[vm] = append(s.Order[vm], wf.TaskID(task))
	}
	for _, o := range s.Order {
		sort.SliceStable(o, func(a, b int) bool {
			ra, oka := rank[o[a]]
			rb, okb := rank[o[b]]
			switch {
			case oka && okb:
				return ra < rb
			case oka:
				return true
			case okb:
				return false
			default:
				return o[a] < o[b]
			}
		})
	}
}

func planJSON(t *testing.T, s *plan.Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRefineMatchesReference is the byte-identity gate of the in-place
// candidate builder and the retargeted engine: HEFTBUDG+, HEFTBUDG+INV
// and CG+ must produce exactly the reference's plan JSON on every
// family, size, seed and point of the budget grid.
func TestRefineMatchesReference(t *testing.T) {
	p := platform.Default()
	for _, typ := range wfgen.AllPaperTypes() {
		for _, n := range []int{20, 50, 90} {
			for seed := uint64(1); seed <= 2; seed++ {
				typ, n, seed := typ, n, seed
				t.Run(fmt.Sprintf("%s/n=%d/seed=%d", typ, n, seed), func(t *testing.T) {
					t.Parallel()
					w := paperInstance(t, typ, n, seed)
					for _, budget := range budgetGrid(t, w, p) {
						for _, c := range []struct {
							name     string
							got, ref func() (*plan.Schedule, error)
						}{
							{"heftbudg+",
								func() (*plan.Schedule, error) { return HeftBudgPlus(w, p, budget) },
								func() (*plan.Schedule, error) { return refineReference(w, p, budget, false) }},
							{"heftbudg+inv",
								func() (*plan.Schedule, error) { return HeftBudgPlusInv(w, p, budget) },
								func() (*plan.Schedule, error) { return refineReference(w, p, budget, true) }},
							{"cg+",
								func() (*plan.Schedule, error) { return CGPlus(w, p, budget) },
								func() (*plan.Schedule, error) { return cgPlusReference(w, p, budget) }},
						} {
							got, err1 := c.got()
							want, err2 := c.ref()
							if (err1 == nil) != (err2 == nil) {
								t.Fatalf("%s B=%g: err %v, reference err %v", c.name, budget, err1, err2)
							}
							if err1 != nil {
								continue
							}
							if g, r := planJSON(t, got), planJSON(t, want); !bytes.Equal(g, r) {
								t.Fatalf("%s B=%g: plan differs from reference\ngot  %s\nwant %s", c.name, budget, g, r)
							}
						}
					}
				})
			}
		}
	}
}

// budgetGrid is the 8-point budget grid of the Figure 2 sweeps: from
// the cost of the one-VM cheapest schedule to twice HEFT's extra cost
// over it (exp.ComputeAnchors, which this package cannot import).
func budgetGrid(t *testing.T, w *wf.Workflow, p *platform.Platform) []float64 {
	t.Helper()
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	cheap := plan.New(w.NumTasks())
	cheap.ListT = order
	vm := cheap.AddVM(p.Cheapest())
	for _, task := range order {
		cheap.Assign(task, vm)
	}
	cr, err := sim.RunDeterministic(w, p, cheap)
	if err != nil {
		t.Fatal(err)
	}
	heft, err := Heft(w, p)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := sim.RunDeterministic(w, p, heft)
	if err != nil {
		t.Fatal(err)
	}
	lo := cr.TotalCost
	hi := math.Max(lo+2*(hr.TotalCost-lo), math.Max(1.02*hr.TotalCost, 1.05*lo))
	grid := make([]float64, 8)
	for i := range grid {
		grid[i] = lo + (hi-lo)*float64(i)/7
	}
	return grid
}

// Property: the linear order rebuild equals the map-and-sort rebuild,
// also for a ListT that leaves tasks out, repeats one, or names IDs
// outside the workflow, and on a Scratch reused across schedules.
func TestRebuildOrderMatchesSortReference(t *testing.T) {
	var sc plan.Scratch
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		s := plan.New(n)
		k := 1 + r.Intn(6)
		for v := 0; v < k; v++ {
			s.AddVM(r.Intn(3))
		}
		for t := range s.TaskVM {
			if r.Intn(8) == 0 {
				s.TaskVM[t] = plan.Unassigned
			} else {
				s.TaskVM[t] = r.Intn(k)
			}
		}
		for _, i := range r.Perm(n) {
			if r.Intn(4) != 0 { // leave about a quarter out
				s.ListT = append(s.ListT, wf.TaskID(i))
			}
		}
		if r.Intn(3) == 0 && len(s.ListT) > 0 {
			s.ListT = append(s.ListT, s.ListT[r.Intn(len(s.ListT))], wf.TaskID(n+r.Intn(5)), -1)
		}
		want := s.Clone()
		rebuildOrderRef(want)
		sc.RebuildOrder(s)
		if len(s.Order) != len(want.Order) {
			return false
		}
		for v := range want.Order {
			if fmt.Sprint(s.Order[v]) != fmt.Sprint(want.Order[v]) {
				t.Logf("seed %d VM %d: got %v, want %v", seed, v, s.Order[v], want.Order[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMoverTryAllocationFree: once its buffers have grown, evaluating a
// candidate move — copy, compact, order rebuild, full Validate, bind
// and simulation — allocates nothing.
func TestMoverTryAllocationFree(t *testing.T) {
	p := platform.Default()
	w := paperInstance(t, wfgen.Ligo, 50, 1)
	s, err := HeftBudg(w, p, budgetGrid(t, w, p)[3])
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := newMover(w, p, s)
	if err != nil {
		t.Fatal(err)
	}
	tryAll := func() {
		for _, task := range s.ListT {
			for target := range m.targets(s) {
				if target == s.TaskVM[task] {
					continue
				}
				if _, err := m.try(s, task, target); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	tryAll() // grow every buffer
	if allocs := testing.AllocsPerRun(3, tryAll); allocs != 0 {
		t.Errorf("evaluating every move of a HEFTBUDG schedule allocates %v times", allocs)
	}
}
