package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as its own benchmark child, the
// way the benchmark binary does. It runs in the test process and in
// every child that process spawns, so all of them use the same tiny
// inputs.
func TestMain(m *testing.M) {
	for _, w := range workloads {
		w.scale = 0.01
	}
	if role := os.Getenv(childEnv); role != "" {
		os.Exit(childMain(role, os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCode checks that BENCHMARK.json names exactly the
// workloads and metrics, with the units, that the benchmark reports.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	code := workloadNames()
	sort.Strings(code)
	if strings.Join(names, ",") != strings.Join(code, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, code)
	}
	for _, c := range []struct {
		kind string
		spec []specMetric
		code []metricDef
	}{{"end_to_end", s.EndToEnd, endToEnd}, {"per_layer", s.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", c.kind, len(c.spec), len(c.code))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, code %s %s", c.kind, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// TestSmoke runs every workload on a tiny input for one second, untraced
// and traced, and checks that each run prints every metric
// BENCHMARK.json declares for it, with its unit and sample count, and
// that no operation or output check failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := readSpec(t)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark writes under ./.bench_build; keep that out of the
	// source tree.
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	for _, w := range s.Workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "1", "--seconds", "1", "--trace", trace}
			if code := parentMain(args, &out); code != 0 {
				t.Fatalf("%v: exit %d\n%s", args, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not a result: %v\n%s", args, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := s.EndToEnd
			if trace == "1" {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: %d metrics, want %d", args, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%v: metric %s = %+v, want unit %s", args, m.Name, got, m.Unit)
				}
				if !strings.Contains(out.String(), "\n"+m.Name+" ") {
					t.Errorf("%v: no printed line for %s", args, m.Name)
				}
			}
		}
	}
}

// TestBadArguments checks a malformed command line exits non-zero
// without printing a result.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "edit-loop", "--trace", "2"},
		{"--workload", "edit-loop", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := parentMain(args, &out); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q; want non-zero and none", args, code, out.String())
		}
	}
}
