package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type designFile struct {
	Workloads []struct {
		Name    string    `json:"name"`
		Rate    float64   `json:"rate_ops_s"`
		LimitMs float64   `json:"limit_p99_ms"`
		Ramp    []float64 `json:"ramp_ops_s"`
	} `json:"workloads"`
	Predictions []struct {
		Metrics []string `json:"metrics"`
		On      []string `json:"on"`
		NotOn   []string `json:"should_not_move_on"`
	} `json:"predictions"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestDesignMatchesCode checks that BENCHMARK.json and design.json
// describe the workloads and metrics the code implements.
func TestDesignMatchesCode(t *testing.T) {
	var bm benchmarkFile
	var d designFile
	readJSON(t, "../BENCHMARK.json", &bm)
	readJSON(t, "design.json", &d)
	if len(bm.Workloads) != len(workloads) || len(d.Workloads) != len(workloads) {
		t.Fatalf("workload counts: BENCHMARK.json %d, design.json %d, code %d", len(bm.Workloads), len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		dw := d.Workloads[i]
		if bm.Workloads[i].Name != w.name || dw.Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, design.json %q, code %q", i, bm.Workloads[i].Name, dw.Name, w.name)
		}
		want := []float64{w.rampFrom * w.rate, w.rampTop * w.rate}
		if dw.Rate != w.rate || dw.LimitMs != ms(w.limit) || len(dw.Ramp) != 2 || dw.Ramp[0] != want[0] || dw.Ramp[1] != want[1] {
			t.Errorf("%s: design.json %+v disagrees with the code %+v", w.name, dw, *w)
		}
	}
	predicted := map[string]int{}
	for _, p := range d.Predictions {
		for _, m := range p.Metrics {
			predicted[m]++
		}
		for _, name := range append(append([]string(nil), p.On...), p.NotOn...) {
			if lookup(name) == nil {
				t.Errorf("prediction names unknown workload %q", name)
			}
		}
	}
	for _, m := range bm.PerLayer {
		if predicted[m.Name] != 1 {
			t.Errorf("per-layer metric %s is in %d prediction rows, want 1", m.Name, predicted[m.Name])
		}
		delete(predicted, m.Name)
	}
	for m := range predicted {
		t.Errorf("prediction metric %s is not a per-layer metric of BENCHMARK.json", m)
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that the verdict passes, that every metric of BENCHMARK.json is
// printed with its unit, and that the fault-free workloads fail nothing.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var bm benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bm)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(&out, w, 7, 2*time.Second, traced, false, t.TempDir(), "test")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if err := printResult(&out, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s traced=%v: last line: %v", w.name, traced, err)
			}
			if !last.Correct || last.Attempted < 1 {
				t.Fatalf("%s traced=%v: verdict failed:\n%s", w.name, traced, out.String())
			}
			if !w.failover && last.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.name, traced, last.Failed, last.Attempted)
			}
			want := bm.EndToEnd
			if traced {
				want = bm.PerLayer
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.name, traced, len(last.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (present %v), want unit %s", w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestCapacityRamps runs the --capacity ramps briefly on kv-lan and checks
// that they report capacity_ops_s and keep the verdict.
func TestCapacityRamps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	var out bytes.Buffer
	res, err := run(&out, lookup("kv-lan"), 7, 3*time.Second, false, true, t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || !strings.Contains(out.String(), "report capacity_ops_s") {
		t.Fatalf("capacity ramps: correct=%v\n%s", res.correct, out.String())
	}
}
