// Command perfbench is the repository's benchmark: it runs one workload
// against the job service (internal/service) or a LoopNet cluster
// (internal/cluster) on closed-loop clients, checks every result, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) by name
// and unit. The last line of its output is one JSON object. README.md in this
// directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// nproc is both the closed-loop client count and each service's Workers.
var nproc = runtime.NumCPU()

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies the jobs per round (1 in a real run; tests shrink it).
	scale float64
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	problems  []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: hit-1n, cold-1n, splash-race-1n or fill-3n")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds (whole rounds, at least three)")
	flag.IntVar(&trace, "trace", 0, "1 runs traced and untraced rounds and prints the per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.scale = 1
	if _, err := workloadByName(cfg.workload); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, nproc, runtime.GOMAXPROCS(0), runtime.Version())
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// maxWall stops adding rounds once a run has taken this long, so a slow
// machine still finishes well inside the benchmark's time limit.
const maxWall = 120 * time.Second

// run measures cfg's workload in whole rounds, after one warm-up round,
// until the measured time reaches cfg.seconds, writing one line per round to
// log.
func run(cfg config, log io.Writer) (*report, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	n := max(int(float64(w.roundJobs)*cfg.scale), w.sample)
	minRounds := 3
	if cfg.trace {
		minRounds = 4
	}
	began := time.Now()
	ref := newReplayer()
	agree := runAgreement{}
	rep := &report{Metrics: map[string]metric{}}
	tr := &tracer{}
	var rounds []*roundResult
	var measured time.Duration
	for r := 0; ; r++ {
		// Round 0 warms the process (heap growth, lazy initialisation) and
		// is checked but not measured. Traced rounds sit in the middle of
		// each following group of four, so drift over the run affects both
		// kinds alike.
		traced := cfg.trace && r > 0 && ((r-1)%4 == 1 || (r-1)%4 == 2)
		in, err := w.gen(cfg.seed, r, n)
		if err != nil {
			return nil, fmt.Errorf("round %d inputs: %w", r, err)
		}
		var rtr *tracer
		if traced {
			rtr = tr
		}
		rr, err := runRound(w, in, rtr, ref, agree)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rep.Attempted += rr.jobs
		rep.Failed += rr.failed
		rep.problems = append(rep.problems, rr.problems...)
		fmt.Fprintf(log, "round %d warmup=%t traced=%t jobs=%d setup_s=%.4f elapsed_s=%.4f jobs_per_s=%.1f failed=%d\n",
			r, r == 0, traced, rr.jobs, rr.setup.Seconds(), rr.elapsed.Seconds(), rr.jobsPerS(), rr.failed)
		if r == 0 {
			continue
		}
		rounds = append(rounds, rr)
		measured += rr.elapsed
		enough := measured.Seconds() >= cfg.seconds || time.Since(began) > maxWall
		if len(rounds) >= minRounds && enough && (!cfg.trace || len(rounds)%2 == 0) {
			break
		}
	}
	rep.Correct = rep.Failed == 0 && len(rep.problems) == 0

	var plain, traced []*roundResult
	for _, rr := range rounds {
		if rr.traced {
			traced = append(traced, rr)
		} else {
			plain = append(plain, rr)
		}
	}
	e2e := endToEndValues(plain, rounds, rep)
	defs, vals := endToEnd, e2e
	if cfg.trace {
		defs, vals = perLayer, layerValues(plain, traced, tr)
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(log, "%-30s %16.4f %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(log, "%-30s %16d %s\n", "latency_samples", int64(e2e["latency_samples"]), "count")
	return rep, nil
}

// perRound is the median over rounds of f.
func perRound(rounds []*roundResult, f func(*roundResult) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, rr := range rounds {
		xs[i] = f(rr)
	}
	return median(xs)
}

// endToEndValues computes the end-to-end metrics over the untraced rounds
// (set-up time and success over every round). Every timing is a median over
// rounds or blocks of rounds, so a few rounds slowed by the host move none of
// them.
func endToEndValues(plain, all []*roundResult, rep *report) map[string]float64 {
	var samples int64
	for _, rr := range plain {
		samples += rr.lat.n
	}
	return map[string]float64{
		"jobs_per_s":          perRound(plain, (*roundResult).jobsPerS),
		"latency_p50_us":      blockQuantile(plain, 0.50) / 1e3,
		"latency_p99_us":      blockQuantile(plain, 0.99) / 1e3,
		"success_frac":        float64(rep.Attempted-rep.Failed) / float64(rep.Attempted),
		"setup_s":             perRound(all, func(rr *roundResult) float64 { return rr.setup.Seconds() }),
		"cpu_us_per_job":      perRound(plain, cpuPerJob),
		"alloc_bytes_per_job": perRound(plain, allocPerJob),
		"peak_heap_mib":       perRound(plain, peakMiB),
		"latency_samples":     float64(samples),
	}
}

// layerValues computes the per-layer metrics of the traced rounds.
func layerValues(plain, traced []*roundResult, tr *tracer) map[string]float64 {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	lt, c, jobs := &tr.layers, tr.ctr, float64(tr.jobs)
	sampled := float64(lt.jobs)
	perJobUS := func(ns int64) float64 { return div(float64(ns)/1e3, sampled) }
	perJob := func(x int64) float64 { return div(float64(x), sampled) }
	medianRate := func(rounds []*roundResult) float64 { return perRound(rounds, (*roundResult).jobsPerS) }
	v := map[string]float64{
		"service.submit_us":           tr.submit.meanUS(),
		"service.wait_us":             tr.wait.meanUS(),
		"service.key_us":              lt.key.meanUS(),
		"service.instr_hit_frac":      div(float64(c.instrHits), float64(c.instrHits+c.instrMisses)),
		"service.result_hit_frac":     div(float64(c.resultHits), float64(c.resultHits+c.resultMisses)),
		"service.rejected_frac":       div(float64(c.rejected), jobs),
		"ir.parse_us":                 perJobUS(lt.parse.ns),
		"ir.print_us":                 perJobUS(lt.print.ns),
		"ir.clone_us":                 perJobUS(lt.clone.ns),
		"ir.alloc_bytes_per_job":      perJob(lt.parse.bytes + lt.clone.bytes + lt.print.bytes),
		"core.instrument_us":          perJobUS(lt.instrument.ns),
		"core.alloc_bytes_per_job":    perJob(lt.instrument.bytes),
		"sim.run_us":                  perJobUS(lt.run.ns),
		"sim.steps_per_job":           perJob(lt.steps),
		"sim.steps_per_s":             div(float64(lt.steps), float64(lt.simNS)/1e9),
		"sim.acquisitions_per_job":    perJob(lt.acqs),
		"sim.alloc_bytes_per_job":     perJob(lt.run.bytes),
		"interp.race_us":              perJobUS(lt.raceNS),
		"interp.instrs_per_job":       perJob(lt.instrs),
		"interp.mips":                 div(float64(lt.instrs), float64(lt.simNS)/1e3),
		"trace.hash_us":               perJobUS(lt.hash.ns),
		"trace.alloc_bytes_per_job":   perJob(lt.hash.bytes),
		"cluster.route_us":            tr.route.meanUS(),
		"cluster.fill_rtt_us":         tr.wire.fillHit.meanUS(),
		"cluster.fill_miss_rtt_us":    tr.wire.fillMiss.meanUS(),
		"cluster.offer_rtt_us":        tr.wire.offer.meanUS(),
		"cluster.fill_hit_frac":       div(float64(c.fillHits), float64(c.fillAttempts)),
		"cluster.wire_bytes_per_job":  div(float64(tr.wire.bytes.Load()), jobs),
		"cluster.hedges_per_job":      div(float64(c.fillHedges), jobs),
		"bench.tracing_overhead_frac": 1 - div(medianRate(traced), medianRate(plain)),
		"bench.alloc_bytes_per_job":   perRound(traced, allocPerJob),
		"bench.peak_heap_mib":         perRound(traced, peakMiB),
	}
	// Busy time the spans and the replay account for, per job: the client's
	// calls other than Wait (a waiting client is idle), the peer calls, one
	// key derivation inside the service's execution, and every replayed
	// layer.
	spans := tr.submit.ns.Load() + tr.route.ns.Load() +
		tr.wire.fillHit.ns.Load() + tr.wire.fillMiss.ns.Load() + tr.wire.offer.ns.Load()
	attributed := div(float64(spans)/1e3, jobs) + v["service.key_us"] +
		perJobUS(lt.parse.ns+lt.clone.ns+lt.instrument.ns+lt.print.ns+lt.run.ns+lt.hash.ns)
	v["bench.unattributed_frac"] = 1 - div(attributed, perRound(traced, cpuPerJob))
	return v
}

func allocPerJob(rr *roundResult) float64 { return float64(rr.alloc) / float64(rr.jobs) }
func peakMiB(rr *roundResult) float64     { return float64(rr.peakHeap) / (1 << 20) }
func cpuPerJob(rr *roundResult) float64 {
	return float64(rr.cpu.Nanoseconds()) / 1e3 / float64(rr.jobs)
}
