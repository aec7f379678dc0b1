package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"regexp"
	"testing"
)

// fingerprint digests the inputs of a workload's first rounds: same seed,
// same bytes.
func fingerprint(w workloadDef, seed int64, rounds, n int) (string, error) {
	h := fnv.New64a()
	for r := 0; r < rounds; r++ {
		in, err := w.gen(seed, r, n)
		if err != nil {
			return "", err
		}
		for i := range in.order {
			req := in.request(i)
			fmt.Fprintf(h, "%d %s %d %t", i, req.Source, req.PerturbSeed, req.Race)
			if in.flags != nil {
				fmt.Fprintf(h, " %d", in.flags[i])
			}
			h.Write([]byte{'\n'})
		}
		for k := range in.warmup {
			req := in.warmRequest(k)
			fmt.Fprintf(h, "warm %s %d\n", req.Source, req.PerturbSeed)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

func TestFingerprintDependsOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			n := max(w.roundJobs/64, w.sample)
			a, err := fingerprint(w, 7, 2, n)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fingerprint(w, 7, 2, n)
			if err != nil {
				t.Fatal(err)
			}
			c, err := fingerprint(w, 8, 2, n)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("seed 7 gave fingerprints %s and %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 7 and 8 gave the same fingerprint %s", a)
			}
		})
	}
}

// TestSizedPoolIsSeedInvariant checks that hit-1n's pool holds about the
// same amount of source text for every seed, since a hit's cost is keying,
// which hashes the text.
func TestSizedPoolIsSeedInvariant(t *testing.T) {
	var lo, hi int
	for seed := int64(1); seed <= 6; seed++ {
		pool, err := sizedPool(seed, 16)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, p := range pool {
			total += len(p.source)
		}
		if seed == 1 || total < lo {
			lo = total
		}
		hi = max(hi, total)
	}
	if float64(hi) > 1.05*float64(lo) {
		t.Errorf("pool text ranges from %d to %d bytes over seeds 1-6", lo, hi)
	}
}

// roundOf is a round whose jobs took the given latencies in nanoseconds.
func roundOf(lat ...int64) *roundResult {
	rr := &roundResult{lat: newHist()}
	for _, v := range lat {
		rr.lat.add(v)
	}
	return rr
}

// repeat returns n copies of v.
func repeat(v int64, n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func TestBlockQuantile(t *testing.T) {
	// Values below 128 ns have one-nanosecond buckets, so a quantile lies
	// within 1 of the sample value.
	near := func(got, want float64) bool { return got >= want && got < want+1 }
	fast, slow := repeat(100, 40), repeat(120, 40)
	// p50 needs 20 samples a block: five blocks, one of them slow, so the
	// median block is fast.
	rounds := []*roundResult{roundOf(fast...), roundOf(slow...), roundOf(fast...), roundOf(fast...), roundOf(fast...)}
	if got := blockQuantile(rounds, 0.5); !near(got, 100) {
		t.Errorf("p50 with one slow round = %g, want 100", got)
	}
	// p90 needs 100 samples a block. The short last round joins the block
	// before it, whose p90 (rank 104 of 115) is then slow: the median of the
	// two blocks lies halfway.
	rounds = []*roundResult{roundOf(repeat(100, 100)...), roundOf(repeat(100, 100)...), roundOf(repeat(120, 15)...)}
	if got := blockQuantile(rounds, 0.9); !near(got, 110) {
		t.Errorf("p90 with a short last round = %g, want 110", got)
	}
	// Too few samples for one block: the quantile of all of them.
	if got := blockQuantile([]*roundResult{roundOf(fast[:10]...)}, 0.99); !near(got, 100) {
		t.Errorf("p99 of 10 samples = %g, want 100", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository root
// declares exactly the metrics this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []decl, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (decl{d.name, d.unit, d.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and requires
// the correctness gate and the workload-shape checks to pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	scale := map[string]float64{"hit-1n": 0.01, "cold-1n": 0.05, "splash-race-1n": 0.1, "fill-3n": 0.05}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 3, trace: traced, scale: scale[w.name]}
			rep, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("%s traced=%t: correct=%t failed=%d of %d: %v",
					w.name, traced, rep.Correct, rep.Failed, rep.Attempted, rep.problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w.name, traced, len(rep.Metrics), len(want))
			}
			if !traced && rep.Metrics["success_frac"].Value != 1 {
				t.Errorf("%s: success_frac = %v", w.name, rep.Metrics["success_frac"].Value)
			}
		}
	}
}
