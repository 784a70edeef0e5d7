package core_test

import (
	"io"
	"path/filepath"
	"testing"

	"odpsim/internal/scenario"
	_ "odpsim/internal/scenario/paper"
)

// TestSideFileErrorsReturn points each workload's side output into a
// directory that does not exist: the run must return the error to its
// caller, not exit the process.
func TestSideFileErrorsReturn(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	for _, tc := range []struct {
		name string
		opts scenario.Options
	}{
		{"fig11", scenario.Options{Quick: true, CounterCSV: filepath.Join(missing, "counters.csv")}},
		{"fig5", scenario.Options{Quick: true, CaptureCSV: filepath.Join(missing, "capture.csv")}},
	} {
		if err := scenario.RunNamed(tc.name, io.Discard, tc.opts); err == nil {
			t.Errorf("%s: run with an unwritable side output returned nil", tc.name)
		}
	}
}
