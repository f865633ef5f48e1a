package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// note declares an experiment of one free-form section.
func note(id string, f func(r *experiments.Run) error) *experiments.Experiment {
	return &experiments.Experiment{ID: id, Title: "injected", Tables: []experiments.Table{{Note: f}}}
}

// TestFailedExperimentStillWritesReports: an experiment that fails used to
// log.Fatal inside its body, skipping the deferred profile stop and the
// -json/-trace writes. Now the run stops there, both files are written
// with what ran, the failure is named, and the exit status is 1.
func TestFailedExperimentStillWritesReports(t *testing.T) {
	registry := []*experiments.Experiment{
		note("X1", func(r *experiments.Run) error { r.Record("answers", 7); return nil }),
		note("X2", func(r *experiments.Run) error { r.Record("steps", 9); return errors.New("steps differ") }),
		note("X3", func(*experiments.Run) error { t.Error("ran past the failed experiment"); return nil }),
	}
	dir := t.TempDir()
	jsonPath, tracePath := filepath.Join(dir, "report.json"), filepath.Join(dir, "trace.json")
	var stdout, stderr strings.Builder
	args := []string{"-quick", "-json", jsonPath, "-trace", tracePath, "-cpuprofile", filepath.Join(dir, "cpu.out")}
	if status := run(args, registry, &stdout, &stderr); status != 1 {
		t.Fatalf("exit status %d, want 1; stderr: %s", status, &stderr)
	}
	if msg := stderr.String(); !strings.Contains(msg, "X2") || !strings.Contains(msg, "steps differ") {
		t.Errorf("stderr %q does not name the failed experiment and its error", msg)
	}
	var report struct {
		Experiments []expReport `json:"experiments"`
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if got := report.Experiments; len(got) != 2 || got[0].ID != "X1" || got[0].Extra["answers"] != 7.0 || got[0].Error != "" ||
		got[1].ID != "X2" || got[1].Extra["steps"] != 9.0 || !strings.Contains(got[1].Error, "steps differ") {
		t.Errorf("report = %+v; want X1 clean and X2 with its error and extras", got)
	}
	for _, path := range []string{tracePath, filepath.Join(dir, "cpu.out")} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", path, err)
		}
	}
}
