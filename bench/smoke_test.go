package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// run executes the benchmark command the way the driver does, on a 30-day
// archive with two seconds of measurement and two restart cycles, and
// returns the result object from the last line of its standard output.
func run(t *testing.T, workload string, trace string) result {
	t.Helper()
	cmd := exec.Command("bash", "run.sh", "--workload", workload, "--seed", "1", "--seconds", "2", "--trace", trace,
		"-days", "30", "-restarts", "2")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s --trace %s: %v\n%s\n%s", workload, trace, err, out, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s --trace %s: last line is not a result object: %v\n%s", workload, trace, err, out)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d\n%s", workload, trace, res.Correct, res.Attempted, res.Failed, out)
	}
	return res
}

func checkMetrics(t *testing.T, what string, res result, decls []metricDecl) {
	t.Helper()
	if len(res.Metrics) != len(decls) {
		t.Errorf("%s: %d metrics printed, %d declared", what, len(res.Metrics), len(decls))
	}
	for _, m := range decls {
		v, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s missing from the output", what, m.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v is not finite", what, m.Name, v.Value)
		case v.Unit != m.Unit:
			t.Errorf("%s: %s printed in %q, declared in %q", what, m.Name, v.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload untraced and one traced, and checks that
// each run exits 0 with failed = 0 and prints exactly the metrics
// BENCHMARK.json declares for its mode, all finite.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs keplerd")
	}
	for _, wl := range workloads {
		res := run(t, wl.Name, "0")
		checkMetrics(t, wl.Name+" untraced", res, endToEnd)
		for _, m := range endToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive on every workload", wl.Name, m.Name, res.Metrics[m.Name].Value)
			}
		}
	}
	checkMetrics(t, "storm-durable traced", run(t, "storm-durable", "1"), perLayer)
}

// TestManifest pins BENCHMARK.json to the declarations in this program.
func TestManifest(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := manifestJSON(); !bytes.Equal(file, want) {
		t.Errorf("BENCHMARK.json differs from what `bash bench/run.sh -manifest` prints; regenerate it")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
}
