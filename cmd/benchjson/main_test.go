package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// writeReport writes a benchjson report holding the given ns/op per
// benchmark and returns its path.
func writeReport(t *testing.T, name string, ns map[string]float64) string {
	t.Helper()
	var r Report
	for bench, v := range ns {
		r.Results = append(r.Results, Result{Name: bench, NsPerOp: v, N: 1})
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareOneSidedEntries checks that a benchmark present on one side
// only prints as new or gone and never fails the comparison, while a
// shared benchmark that regressed past the bound still does.
func TestCompareOneSidedEntries(t *testing.T) {
	old := writeReport(t, "old.json", map[string]float64{"kept": 100, "retired": 50})
	cur := writeReport(t, "new.json", map[string]float64{"kept": 110, "engine/askall-roundtrip": 7000})
	var out bytes.Buffer
	if err := compareReports(&out, []string{old}, []string{cur}, 50); err != nil {
		t.Fatalf("one-sided entries failed the comparison: %v\n%s", err, &out)
	}
	for _, want := range []string{`engine/askall-roundtrip\s+-\s+7000\.0\s+new`, `retired\s+50\.0\s+-\s+gone`, `kept\s+100\.0\s+110\.0\s+\+10\.0%`} {
		if !regexp.MustCompile(want).Match(out.Bytes()) {
			t.Errorf("output lacks %q:\n%s", want, &out)
		}
	}
	slow := writeReport(t, "slow.json", map[string]float64{"kept": 200})
	out.Reset()
	if err := compareReports(&out, []string{old}, []string{slow}, 50); err == nil {
		t.Fatalf("a +100%% regression passed a 50%% bound:\n%s", &out)
	}
}
