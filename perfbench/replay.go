package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/estimates"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// coreDigest digests a result's deterministic core, the fields workload's
// coreOf compares: schedule hash and length, cycles, wait cycles,
// acquisitions and clock updates. Equal requests must give equal digests.
// It allocates nothing, so checking every job does not move the allocation
// metrics; the digest is never 0, so 0 can mark an unset slot.
func coreDigest(hash string, schedLen int, cycles, wait, acqs, clocks int64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(hash); i++ {
		h = (h ^ uint64(hash[i])) * prime
	}
	for _, v := range [...]int64{int64(schedLen), cycles, wait, acqs, clocks} {
		for b := 0; b < 64; b += 8 {
			h = (h ^ uint64(v>>b&0xff)) * prime
		}
	}
	return h | 1
}

func resultDigest(r *service.Result) uint64 {
	return coreDigest(r.ScheduleHash, r.ScheduleLen, r.Cycles, r.WaitCycles, r.Acquisitions, r.ClockUpdates)
}

// path records which pipeline stages the service ran for a job.
type path struct {
	instrCached, cached, peerFilled bool
}

func pathOf(r *service.Result) path {
	return path{instrCached: r.InstrCached, cached: r.Cached, peerFilled: r.PeerFilled}
}

// stage accumulates one layer's busy time and allocation over replayed jobs.
type stage struct {
	ns, bytes int64
}

// layerTotals sums a round's replayed jobs, layer by layer. Only the stages
// the service ran for a job are counted, so a total divided by the number of
// replayed jobs estimates that layer's busy time per job.
type layerTotals struct {
	jobs                                 int
	parse, clone, instrument, print, run stage
	hash                                 stage
	raceNS                               int64 // detector on minus off
	simNS                                int64 // run time of the counted simulations
	instrs, steps, acqs                  int64
	key                                  span
}

// replayer is the benchmark's own pipeline: the layer calls the service
// makes for a job, made directly, in the service's order. It is the
// correctness reference and, in a traced run, the per-layer probe.
type replayer struct {
	costs *ir.CostModel
	est   *estimates.Table
}

func newReplayer() *replayer {
	return &replayer{costs: ir.DefaultCostModel(), est: estimates.DefaultTable()}
}

// timed runs fn and, when into is non-nil, adds its wall time and allocated
// bytes to into. Nothing else runs while the replay does, so the process
// allocation counter belongs to fn.
func timed(into *stage, fn func()) {
	if into == nil {
		fn()
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	into.ns += int64(el)
	into.bytes += int64(m1.TotalAlloc - m0.TotalAlloc)
}

// replay recomputes req from its source and returns the full core digest.
// With lt non-nil it charges lt with the stages p says the service ran.
func (r *replayer) replay(req service.Request, p path, lt *layerTotals) (uint64, error) {
	record := lt != nil
	if record {
		lt.jobs++
	} else {
		lt = &layerTotals{}
	}
	pick := func(s *stage, ran bool) *stage {
		if !record || !ran {
			return nil
		}
		return s
	}
	instr := !p.instrCached
	simulated := !p.cached && !p.peerFilled

	var raw, mod *ir.Module
	var err error
	timed(pick(&lt.parse, instr), func() { raw, err = ir.Parse(req.Source) })
	if err != nil {
		return 0, fmt.Errorf("reference parse: %w", err)
	}
	timed(pick(&lt.clone, instr), func() { mod = raw.Clone() })
	timed(pick(&lt.instrument, instr), func() {
		opt := harness.PresetByKey(req.Preset)
		opt.Roots = []string{req.Entry}
		_, err = core.Instrument(mod, r.costs, r.est, opt)
	})
	if err != nil {
		return 0, fmt.Errorf("reference instrument: %w", err)
	}
	timed(pick(&lt.print, instr), func() { _ = mod.String() })

	var simMod *ir.Module
	timed(pick(&lt.clone, simulated), func() { simMod = mod.Clone() })
	var stats *sim.Stats
	var mach *interp.Machine
	runStage := pick(&lt.run, simulated)
	var runNS int64
	if runStage != nil {
		runNS = -runStage.ns
	}
	timed(runStage, func() { stats, mach, err = r.simulate(simMod, req, req.Race) })
	if err != nil {
		return 0, fmt.Errorf("reference simulate: %w", err)
	}
	var sched *trace.Schedule
	var h uint64
	timed(pick(&lt.hash, simulated || p.peerFilled), func() {
		sched = trace.FromSim(stats.Trace)
		h = sched.Hash()
	})
	if runStage != nil {
		runNS += runStage.ns
		lt.simNS += runNS
		lt.instrs += mach.InstrsExecuted
		lt.steps += stats.Steps
		lt.acqs += stats.Acquisitions
		if req.Race {
			plain := mod.Clone()
			start := time.Now()
			if _, _, err := r.simulate(plain, req, false); err != nil {
				return 0, fmt.Errorf("reference simulate without detector: %w", err)
			}
			lt.raceNS += runNS - int64(time.Since(start))
		}
	}
	full := coreDigest(fmt.Sprintf("%016x", h), sched.Len(), stats.Makespan, stats.WaitCycles, stats.Acquisitions, mach.ClockUpdates)
	return full, nil
}

// simulate mirrors the service's simulation of an instrumented module.
func (r *replayer) simulate(mod *ir.Module, req service.Request, race bool) (*sim.Stats, *interp.Machine, error) {
	cfg := interp.Config{
		Module:     mod,
		Costs:      r.costs,
		Estimates:  r.est,
		Threads:    req.Threads,
		Entry:      req.Entry,
		JitterSeed: req.PerturbSeed,
	}
	if race {
		cfg.Race = &interp.RaceConfig{Policy: interp.RaceFailFast}
	}
	mach, threads, err := interp.NewMachine(cfg)
	if err != nil {
		return nil, nil, err
	}
	eng := sim.New(sim.Config{
		Policy:      sim.PolicyDet,
		NumLocks:    mod.NumLocks,
		NumBarriers: mod.NumBars,
		RecordTrace: true,
		Observer:    mach.Observer(),
	}, interp.Programs(threads))
	stats, err := eng.Run()
	if err != nil {
		return nil, nil, err
	}
	return stats, mach, nil
}
