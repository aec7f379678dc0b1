package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
)

// roundResult is what one measured round yields.
type roundResult struct {
	traced   bool
	setup    time.Duration
	elapsed  time.Duration
	jobs     int
	failed   int
	cpu      time.Duration
	alloc    uint64
	peakHeap uint64
	lat      *hist
	ctr      counters // over the measured window
	warmJobs int      // fill-3n: measured jobs whose key set-up warmed
	problems []string // correctness and shape failures
}

func (r *roundResult) jobsPerS() float64 { return float64(r.jobs) / r.elapsed.Seconds() }

// drive runs fn(client, i) for every i in [0, n) on nproc closed-loop
// clients: each client sends its next job only after the previous returned.
func drive(n int, fn func(client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// firstErr keeps the first error reported from several goroutines.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// agreement holds, per program, the core digest of the first job of it. In
// a workload whose jobs of one program share their request (no perturbation
// seed), every later job must return the same; a zero slot is unset.
type agreement []atomic.Uint64

func (a agreement) agree(p int32, d uint64) bool {
	return a[p].CompareAndSwap(0, d) || a[p].Load() == d
}

// sampleRec is a job the reference recomputes after the round.
type sampleRec struct {
	idx  int
	done bool
	full uint64
	path path
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapPeak samples live heap object bytes every millisecond until stopped
// and returns the largest value seen.
func heapPeak() (stop func() uint64) {
	done := make(chan struct{})
	out := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-done:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-out
	}
}

// runRound sets up a fresh topology for in, measures its jobs on closed-loop
// clients, checks every result, and tears the topology down. With tr
// non-nil the round is traced into tr.
func runRound(w workloadDef, in *roundInput, tr *tracer, ref *replayer, run runAgreement) (_ *roundResult, err error) {
	traced := tr != nil
	rr := &roundResult{traced: traced, jobs: len(in.order), lat: newHist()}
	var wire *wireRec
	if traced {
		wire = &tr.wire
	}
	start := time.Now()
	resultCache := 0
	if w.keepKeys {
		resultCache = 2 * len(in.order)
	}
	topo, err := openTopology(w.nodes, resultCache, wire)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := topo.close(); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	if err := setup(topo, in); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rr.setup = time.Since(start)
	for i := range in.flags {
		if in.flags[i]&flagWarm != 0 {
			rr.warmJobs++
		}
	}

	// Every stride-th job is recomputed by the reference; the job order is
	// shuffled, so these are a seeded sample over programs.
	stride := max(len(in.order)/w.sample, 1)
	samples := make([]sampleRec, min(w.sample, len(in.order)))
	for k := range samples {
		samples[k].idx = k * stride
	}
	agreeTab := make(agreement, len(in.progs))
	hists := make([]*hist, nproc)
	failed := make([]int, nproc)
	for c := range hists {
		hists[c] = newHist()
	}
	var mismatch firstErr
	ctx := context.Background()

	runtime.GC()
	c0 := topo.counters()
	cpu0 := cpuTime()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stopPeak := heapPeak()
	t0 := time.Now()
	drive(len(in.order), func(c, i int) {
		req := in.request(i)
		svc := topo.svcs[0]
		begin := time.Now()
		if topo.nodes != nil {
			// Route as a front end would: derive the key, find its owner,
			// and send the job to the non-owner the seed picked.
			key, err := svc.KeyFor(req)
			if err != nil {
				failed[c]++
				mismatch.set(fmt.Errorf("job %d: KeyFor: %w", i, err))
				return
			}
			owner := topo.nodes[0].Owner(key)
			pick := int(in.flags[i]&flagPeer) / int(flagPeer)
			for _, n := range topo.nodes {
				if n.Name() != owner {
					if pick == 0 {
						svc = n.Service()
						break
					}
					pick--
				}
			}
			if traced {
				tr.route.add(time.Since(begin))
			}
		}
		sub := time.Now()
		id, err := svc.Submit(req)
		var res *service.Result
		if err == nil {
			waited := time.Now()
			if traced {
				tr.submit.add(waited.Sub(sub))
			}
			res, err = svc.Wait(ctx, id)
			if traced {
				tr.wait.add(time.Since(waited))
			}
		}
		hists[c].add(int64(time.Since(begin)))
		if err != nil {
			failed[c]++
			mismatch.set(fmt.Errorf("job %d: %w", i, err))
			return
		}
		full := resultDigest(res)
		p := in.order[i]
		if in.perturbBase == 0 && !agreeTab.agree(p, full) {
			failed[c]++
			mismatch.set(fmt.Errorf("job %d: program %s returned core %016x, an earlier job of it %016x",
				i, in.progs[p].name, full, agreeTab[p].Load()))
			return
		}
		if i%stride == 0 && i/stride < len(samples) {
			samples[i/stride] = sampleRec{idx: i, done: true, full: full, path: pathOf(res)}
		}
	})
	rr.elapsed = time.Since(t0)
	rr.peakHeap = stopPeak()
	runtime.ReadMemStats(&m1)
	rr.cpu = cpuTime() - cpu0
	rr.alloc = m1.TotalAlloc - m0.TotalAlloc
	rr.ctr = topo.counters().plus(c0, -1)
	for c := range hists {
		rr.lat.merge(hists[c])
		rr.failed += failed[c]
	}
	if mismatch.err != nil {
		rr.problems = append(rr.problems, mismatch.err.Error())
	}
	rr.problems = append(rr.problems, shapeCheck(w.name, rr)...)
	rr.problems = append(rr.problems, run.merge(in, agreeTab)...)

	// Reference recompute of the sample; in a traced round it also replays
	// each sampled job through the layers.
	var lt *layerTotals
	if traced {
		lt = &tr.layers
		tr.ctr = tr.ctr.plus(rr.ctr, 1)
		tr.jobs += int64(rr.jobs)
	}
	for _, s := range samples {
		if !s.done {
			continue
		}
		req := in.request(s.idx)
		full, err := ref.replay(req, s.path, lt)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", s.idx, err)
		}
		if full != s.full {
			rr.problems = append(rr.problems, fmt.Sprintf("job %d (%s): service core %016x, reference core %016x",
				s.idx, in.progs[in.order[s.idx]].name, s.full, full))
		}
		if traced {
			if err := timeKey(topo.svcs[0], req, &tr.layers.key); err != nil {
				return nil, err
			}
		}
	}
	return rr, nil
}

// timeKey times one Service.KeyFor call on a warm instrumentation entry: the
// content-key derivation every job pays.
func timeKey(svc *service.Service, req service.Request, into *span) error {
	if _, err := svc.KeyFor(req); err != nil {
		return fmt.Errorf("KeyFor: %w", err)
	}
	start := time.Now()
	_, err := svc.KeyFor(req)
	into.add(time.Since(start))
	return err
}

// setup warms the topology for in: each warm-up program once on every node,
// then, for fill-3n, the warm half of the measured keys on their owners.
func setup(t *topology, in *roundInput) error {
	var fe firstErr
	ctx := context.Background()
	do := func(svc *service.Service, req service.Request) {
		if _, err := svc.Do(ctx, req); err != nil {
			fe.set(err)
		}
	}
	for _, svc := range t.svcs {
		drive(len(in.warmup), func(_, k int) { do(svc, in.warmRequest(k)) })
	}
	if fe.err != nil || t.nodes == nil {
		return fe.err
	}
	drive(len(in.order), func(_, i int) {
		if in.flags[i]&flagWarm == 0 {
			return
		}
		req := in.request(i)
		key, err := t.svcs[0].KeyFor(req)
		if err != nil {
			fe.set(err)
			return
		}
		owner := t.nodes[0].Owner(key)
		for _, n := range t.nodes {
			if n.Name() == owner {
				do(n.Service(), req)
			}
		}
	})
	return fe.err
}

// shapeCheck verifies that a round loaded the layer its workload is built
// for; a workload that drifted off its layer fails instead of reporting a
// number for the wrong path.
func shapeCheck(name string, rr *roundResult) []string {
	c, n := rr.ctr, int64(rr.jobs)
	var want []string
	expect := func(what string, got, exp int64) {
		if got != exp {
			want = append(want, fmt.Sprintf("%s: %s = %d, want %d", name, what, got, exp))
		}
	}
	switch name {
	case "hit-1n":
		expect("instrumentation hits", c.instrHits, n)
		expect("result hits", c.resultHits, n)
	case "cold-1n":
		expect("instrumentation misses", c.instrMisses, n)
		expect("result misses", c.resultMisses, n)
	case "splash-race-1n":
		expect("instrumentation hits", c.instrHits, n)
		expect("result misses", c.resultMisses, n)
	case "fill-3n":
		expect("fill attempts", c.fillAttempts, n)
		expect("fill hits", c.fillHits, int64(rr.warmJobs))
	}
	expect("rejected jobs", c.rejected, 0)
	return want
}

// runAgreement carries per-program cores across the rounds of a run.
type runAgreement map[string]uint64

func (a runAgreement) merge(in *roundInput, tab agreement) []string {
	if in.perturbBase != 0 {
		return nil
	}
	var bad []string
	for p, prog := range in.progs {
		d := tab[p].Load()
		if d == 0 {
			continue
		}
		if old, ok := a[prog.name]; ok && old != d {
			bad = append(bad, fmt.Sprintf("program %s: core %016x differs from an earlier round's %016x", prog.name, d, old))
			continue
		}
		a[prog.name] = d
	}
	return bad
}
