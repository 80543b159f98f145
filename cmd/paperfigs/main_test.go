package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFigure1Quick(t *testing.T) {
	dir := t.TempDir()
	var out, errw strings.Builder
	if err := run([]string{"-fig", "1", "-quick", "-out", dir}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 1") {
		t.Error("ASCII output missing title")
	}
	csvs, err := filepath.Glob(dir + "/1_*.csv")
	if err != nil || len(csvs) != 3 {
		t.Fatalf("%d CSVs written (%v), want 3", len(csvs), err)
	}
	data, err := os.ReadFile(csvs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "makespan_mean") {
		t.Error("CSV missing header")
	}
	if !strings.Contains(errw.String(), "[1] done") {
		t.Error("progress log missing")
	}
}

func TestRunSigmaQuick(t *testing.T) {
	dir := t.TempDir()
	var out, errw strings.Builder
	if err := run([]string{"-fig", "sigma", "-quick", "-out", dir}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"0.25", "1.00"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("sigma output missing σ=%s", s)
		}
	}
}

// The contention ablation models a bounded datacenter link, which the
// analytic estimator rejects; under -estimator analytic the figure
// must fall back to Monte Carlo with a note instead of failing -all.
func TestRunContentionAnalyticFallsBackToMC(t *testing.T) {
	dir := t.TempDir()
	var out, errw strings.Builder
	if err := run([]string{"-fig", "contention", "-quick", "-estimator", "analytic", "-out", dir}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "Monte Carlo") {
		t.Errorf("no fallback note on stderr: %q", errw.String())
	}
	if out.Len() == 0 {
		t.Error("no contention table printed")
	}
}

func TestRunTable3bQuick(t *testing.T) {
	dir := t.TempDir()
	var out, errw strings.Builder
	if err := run([]string{"-table", "3b", "-quick", "-out", dir}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table III(b)") {
		t.Error("table output missing")
	}
	// Quick mode uses sizes 30 and 60 only.
	if strings.Contains(out.String(), "\n400") {
		t.Error("quick mode ran n=400")
	}
}

func TestRunSelectionErrors(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-out", t.TempDir()}, &out, &errw); err == nil {
		t.Error("no selection accepted")
	}
	if err := run([]string{"-fig", "99", "-out", t.TempDir()}, &out, &errw); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunHTMLReport(t *testing.T) {
	dir := t.TempDir()
	htmlPath := dir + "/report.html"
	var out, errw strings.Builder
	if err := run([]string{"-fig", "1", "-quick", "-svg", "-out", dir, "-html", htmlPath}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{
		"<!DOCTYPE html>", "reproduction report", "<h2>Figure 1</h2>",
		"<svg", "min_cost", "<table>", "makespan_mean",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// 9 inline SVG panels (3 families × 3 panels).
	if n := strings.Count(doc, "<svg"); n != 9 {
		t.Errorf("%d inline SVGs, want 9", n)
	}
}
