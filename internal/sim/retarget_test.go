package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// marketPlatform is the default platform split over two providers: the
// medium category lives off the datacenter's provider, behind a slower
// link, a fixed latency and a per-byte transfer surcharge.
func marketPlatform() *platform.Platform {
	p := platform.Default()
	p.Providers = []string{"home", "away"}
	p.Categories[1].Provider = 1
	p.XferCostPerByte = [][]float64{{0, 0.02 / 1e9}, {0.03 / 1e9, 0}}
	p.XferLatencySec = [][]float64{{0, 0.4}, {0.6, 0}}
	p.ProviderBandwidth = []float64{125e6, 40e6}
	return p
}

// randomSchedule places every task of w on one of k random VMs, with a
// random topological ListT, compacts away empty VMs and rebuilds the
// per-VM orders.
func randomSchedule(r *rand.Rand, w *wf.Workflow, k, numCats int) *plan.Schedule {
	n := w.NumTasks()
	s := plan.New(n)
	for v := 0; v < k; v++ {
		s.AddVM(r.Intn(numCats))
	}
	indeg := make([]int, n)
	var ready []wf.TaskID
	for t := 0; t < n; t++ {
		if indeg[t] = w.NumPred(wf.TaskID(t)); indeg[t] == 0 {
			ready = append(ready, wf.TaskID(t))
		}
	}
	for len(ready) > 0 {
		i := r.Intn(len(ready))
		t := ready[i]
		ready = append(ready[:i], ready[i+1:]...)
		s.ListT = append(s.ListT, t)
		for _, e := range w.Succ(t) {
			if indeg[e.To]--; indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	for t := range s.TaskVM {
		s.TaskVM[t] = r.Intn(k)
	}
	s.CompactVMs()
	return s
}

// TestRunnerRetargetMatchesFreshRun: one Runner retargeted across a
// random sequence of schedules — VM counts growing and shrinking, an
// invalid schedule now and then — must return exactly what a fresh
// sim.Run returns on each, so no per-VM, per-task or flow-arena state
// leaks from one schedule into the next, and flows stay valid when the
// arena grows during a run.
func TestRunnerRetargetMatchesFreshRun(t *testing.T) {
	fluid := platform.Default()
	fluid.DCBandwidth = 2 * fluid.Bandwidth
	platforms := map[string]*platform.Platform{
		"default": platform.Default(),
		"fluid":   fluid,
		"market":  marketPlatform(),
	}
	for name, p := range platforms {
		for _, typ := range wfgen.AllPaperTypes() {
			p, typ := p, typ
			t.Run(fmt.Sprintf("%s/%s", name, typ), func(t *testing.T) {
				w := wfgen.MustGenerate(typ, 30, 3).WithSigmaRatio(0.5)
				r := rand.New(rand.NewSource(int64(len(name)) * 7919))
				runner, err := NewRunner(w, p, randomSchedule(r, w, 1, p.NumCategories()))
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 40; step++ {
					s := randomSchedule(r, w, 1+r.Intn(12), p.NumCategories())
					if step%9 == 4 {
						// An order that breaks precedence must be refused,
						// and the Runner must refuse to run until the next
						// valid Retarget.
						bad := s.Clone()
						bad.ListT = append(bad.ListT[:0:0], bad.ListT...)
						for i, j := 0, len(bad.ListT)-1; i < j; i, j = i+1, j-1 {
							bad.ListT[i], bad.ListT[j] = bad.ListT[j], bad.ListT[i]
						}
						bad.VMCats, bad.TaskVM = bad.VMCats[:1], make([]int, len(bad.TaskVM))
						bad.RebuildOrder()
						if err := runner.Retarget(bad); err == nil {
							t.Fatalf("step %d: reversed single-VM order accepted", step)
						}
						if _, err := runner.RunDeterministic(); !errors.Is(err, errUnbound) {
							t.Fatalf("step %d: run after a failed Retarget: %v", step, err)
						}
					}
					if err := runner.Retarget(s); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if step%3 == 0 {
						// Drop the presized arena: flows must stay valid
						// while it grows mid-run.
						runner.eng.flowArena = nil
					}
					weights := ConservativeWeights(w)
					if step%2 == 1 {
						weights = SampleWeights(w, rng.New(uint64(step)))
					}
					got, err := runner.Run(weights)
					if err != nil {
						t.Fatalf("step %d: runner: %v", step, err)
					}
					want, err := Run(w, p, s, weights)
					if err != nil {
						t.Fatalf("step %d: fresh run: %v", step, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d (%d VMs): retargeted runner diverged from a fresh run\ngot  %+v\nwant %+v",
							step, s.NumVMs(), got, want)
					}
				}
			})
		}
	}
}
