package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The benchmark's self-test: tiny-size (-smoke) runs of every workload,
// measured and traced. Run it from this directory with
//
//	go test -timeout 10m .

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// buildDaemon builds budgetwfd once for the whole test binary.
var daemonPath string

func TestMain(m *testing.M) {
	// The benchmark probes the host by running its own executable —
	// here this test binary — with probeEnv set.
	if os.Getenv(probeEnv) != "" {
		os.Exit(runProbe(os.Stdout))
	}
	dir, err := os.MkdirTemp("", "e2ebench-selftest-")
	if err != nil {
		panic(err)
	}
	daemonPath = filepath.Join(dir, "budgetwfd")
	cmd := exec.Command("go", "build", "-o", daemonPath, "budgetwf/cmd/budgetwfd")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		panic("building budgetwfd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smokeRun runs one tiny-size benchmark run and decodes its last line.
func smokeRun(t *testing.T, workload, seed, trace string) result {
	t.Helper()
	var out bytes.Buffer
	args := []string{"-workload", workload, "-seed", seed, "-seconds", "1", "-trace", trace,
		"-smoke", "-daemon", daemonPath, "-work", t.TempDir()}
	if code := run(args, &out); code != 0 {
		t.Fatalf("%s seed %s trace %s: exit code %d", workload, seed, trace, code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("%s seed %s trace %s: correct %v, attempted %d", workload, seed, trace, res.Correct, res.Attempted)
	}
	return res
}

// TestSmokeMetrics checks that every workload reports every metric of
// BENCHMARK.json by name and unit: the end-to-end ones when measured,
// the per-layer ones when traced.
func TestSmokeMetrics(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, c := range []struct {
			trace string
			want  []struct{ Name, Unit string }
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
			res := smokeRun(t, w.Name, "1", c.trace)
			if len(res.Metrics) != len(c.want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.Name, c.trace, len(res.Metrics), len(c.want))
			}
			for _, m := range c.want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.Name, c.trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// qualityMetrics are the end-to-end metrics that are exact functions of
// the seed.
var qualityMetrics = []string{"ok_ratio", "makespan_norm", "cost_norm", "budget_met_ratio"}

// TestQualityRepeats checks that two runs with one seed give identical
// quality metrics and that another seed changes them.
func TestQualityRepeats(t *testing.T) {
	for _, w := range workloads {
		a := smokeRun(t, w.name, "1", "0")
		b := smokeRun(t, w.name, "1", "0")
		c := smokeRun(t, w.name, "2", "0")
		changed := false
		for _, m := range qualityMetrics {
			if a.Metrics[m] != b.Metrics[m] {
				t.Errorf("%s: %s differs between two runs of seed 1: %v vs %v", w.name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
			if a.Metrics[m] != c.Metrics[m] {
				changed = true
			}
		}
		if a.Attempted != b.Attempted || a.Failed != b.Failed {
			t.Errorf("%s: attempted/failed differ between two runs of seed 1", w.name)
		}
		if !changed {
			t.Errorf("%s: seeds 1 and 2 give the same quality metrics", w.name)
		}
	}
}
