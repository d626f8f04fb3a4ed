package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"github.com/stubby-mr/stubby"
)

// spec is the part of BENCHMARK.json the tests check the program against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny shrinks a run to a few seconds: two of the quickest workflows and
// a short timed phase.
func tiny(t *testing.T, workload string, trace bool) Config {
	return Config{
		Workload:  workload,
		Seed:      7,
		Duration:  400 * time.Millisecond,
		Trace:     trace,
		Dir:       t.TempDir(),
		Workflows: []string{"IR", "LA"},
	}
}

func run(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSmoke runs every workload of BENCHMARK.json at a tiny load, untraced
// and traced, and checks each run is correct and emits exactly the metrics
// BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workload) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(s.Workload), len(workloadList))
	}
	for _, w := range s.Workload {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			rep := run(t, tiny(t, w.Name, trace))
			r := rep.Result
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v",
					w.Name, trace, r.Correct, r.Attempted, r.Failed, rep.Notes)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if trace {
				checkLayers(t, w.Name, r.Metrics)
			} else if v := r.Metrics["jobs_per_s"].Value; v <= 0 {
				t.Errorf("%s: jobs_per_s %v", w.Name, v)
			}
		}
	}
}

// checkLayers checks that each workload stresses the layers it was chosen
// for.
func checkLayers(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	v := func(name string) float64 { return m[name].Value }
	clustered := v("cluster.polls_per_job") > 0 && v("cluster.dispatch_ms") > 0 && v("cluster.bytes_per_job") > 0
	if clustered != (workload == "cluster-mix") {
		t.Errorf("%s: cluster metrics non-zero = %v", workload, clustered)
	}
	switch workload {
	case "cold-search":
		if v("optimizer.ms") <= 0 || v("planstore.computes") <= 0 || v("whatif.calls_per_job") <= 0 {
			t.Errorf("cold-search: optimizer idle: %v", m)
		}
	case "warm-hits":
		if v("optimizer.ms") != 0 || v("planstore.hit_ratio") != 1 || v("planstore.computes") != 0 {
			t.Errorf("warm-hits: optimizer.ms=%v hit_ratio=%v computes=%v",
				v("optimizer.ms"), v("planstore.hit_ratio"), v("planstore.computes"))
		}
	case "cluster-mix":
		if v("planstore.claim_waits") <= 0 {
			t.Errorf("cluster-mix: no claim waits")
		}
	}
}

// TestDigestRepeats checks that two runs of one seed print the same digest
// of (key → plan fingerprint).
func TestDigestRepeats(t *testing.T) {
	a := run(t, tiny(t, "warm-hits", false))
	b := run(t, tiny(t, "warm-hits", false))
	if a.Digest == "" || a.Digest != b.Digest || a.DigestKeys != "2/2" {
		t.Fatalf("digests %s (%s) and %s (%s)", a.Digest, a.DigestKeys, b.Digest, b.DigestKeys)
	}
}

// TestTamperedResultsFail checks that results altered on the wire count as
// failed jobs: a fingerprint that does not match the plan (which the
// client itself rejects), and a cost that does not match the plan's
// re-estimate (which only the benchmark's checks catch).
func TestTamperedResultsFail(t *testing.T) {
	cases := map[string]func([]byte) []byte{
		"fingerprint": func(b []byte) []byte {
			re := regexp.MustCompile(`"fingerprint": "[0-9a-f]`)
			return re.ReplaceAllFunc(b, func(m []byte) []byte {
				m = bytes.Clone(m)
				if m[len(m)-1] == '0' {
					m[len(m)-1] = '1'
				} else {
					m[len(m)-1] = '0'
				}
				return m
			})
		},
		"cost": func(b []byte) []byte {
			return regexp.MustCompile(`"estimatedCost": [0-9.e+-]+`).
				ReplaceAll(b, []byte(`"estimatedCost": 1.5`))
		},
	}
	for name, tamper := range cases {
		cfg := tiny(t, "cold-search", false)
		cfg.tamper = tamper
		rep := run(t, cfg)
		r := rep.Result
		if r.Correct || r.Failed != r.Attempted {
			t.Errorf("%s tampered: correct=%v attempted=%d failed=%d", name, r.Correct, r.Attempted, r.Failed)
		}
	}
}

// TestColdSearchTail checks that cold-search's fewest rounds leave at
// least ten samples beyond the percentile its latency_tail_ms reports.
func TestColdSearchTail(t *testing.T) {
	wl, err := lookupWorkload("cold-search")
	if err != nil {
		t.Fatal(err)
	}
	n := minColdRounds * len(stubby.Workloads())
	if beyond := n - rank(n, wl.tail); beyond < 10 {
		t.Fatalf("%d jobs leave %d beyond p%g", n, beyond, 100*wl.tail)
	}
}
