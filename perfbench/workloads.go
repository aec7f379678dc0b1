package main

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/det"
	"repro/internal/service"
	"repro/internal/splash"
	"repro/internal/workload"
)

// threads is the simulated thread count of every job.
const threads = 4

// program is one distinct job source.
type program struct {
	name   string
	source string
}

// roundInput is everything one measured round submits, generated from the
// seed alone. Job i runs progs[order[i]] with PerturbSeed perturbBase+i (0
// when perturbBase is 0, so repeated programs repeat their result key).
type roundInput struct {
	progs       []program
	order       []int32
	perturbBase int64
	race        bool
	// fill-3n only: flags[i]&flagWarm marks a job whose key set-up computes
	// on its owner; flags[i]&flagPeer picks which of the two non-owners the
	// job is sent to.
	flags []uint8
	// warmup lists program indices set-up runs once each (not measured).
	warmup []int32
}

const (
	flagWarm uint8 = 1 << iota
	flagPeer
)

func (in *roundInput) request(i int) service.Request {
	perturb := int64(0)
	if in.perturbBase != 0 {
		perturb = in.perturbBase + int64(i)
	}
	return service.Request{
		Source:      in.progs[in.order[i]].source,
		Entry:       "main",
		Threads:     threads,
		Preset:      "all",
		PerturbSeed: perturb,
		Race:        in.race,
	}
}

// warmRequest is set-up's request for warmup program k: a perturbation seed
// below perturbBase when the workload uses seeds, so no measured key repeats.
func (in *roundInput) warmRequest(k int) service.Request {
	req := in.request(0)
	req.Source = in.progs[in.warmup[k]].source
	if in.perturbBase != 0 {
		req.PerturbSeed = in.perturbBase - 1 - int64(k)
	}
	return req
}

// workloadDef is one named workload: its topology, the jobs of one round, and
// the cache behaviour a run of it must show.
type workloadDef struct {
	name      string
	nodes     int
	roundJobs int
	// sample is the number of jobs per round the reference pipeline
	// recomputes (and, in a traced run, replays through the layers).
	sample int
	// keepKeys sizes each node's result cache to hold every key of a round;
	// otherwise the service's default cache sizes apply.
	keepKeys bool
	gen      func(seed int64, round, n int) (*roundInput, error)
}

// Rounds are short, so a run's medians are taken over many of them. The
// one-node workloads reuse at most 16 programs, which the service's default
// cache sizes hold.
var workloads = []workloadDef{
	{name: "hit-1n", nodes: 1, roundJobs: 50000, sample: 4, gen: genHit},
	{name: "cold-1n", nodes: 1, roundJobs: 512, sample: 6, gen: genCold},
	{name: "splash-race-1n", nodes: 1, roundJobs: 60, sample: 2, gen: genSplash},
	{name: "fill-3n", nodes: 3, roundJobs: 2048, sample: 6, keepKeys: true, gen: genFill},
}

func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// Stream ids of the input generator; each round draws from its own streams.
const (
	streamOrder = iota + 1
	streamPerturb
	streamFlags
	streamCold
)

func rng(seed int64, round, stream int) *det.Rand {
	return det.NewRand(seed, round*64+stream)
}

// mixPool synthesizes n distinct programs of a workload-plane mix from a
// seed.
func mixPool(name string, seed int64, n int) ([]program, error) {
	spec, err := workload.MixByName(name)
	if err != nil {
		return nil, err
	}
	spec.PoolSize = n
	spec.Threads = threads
	mix, err := workload.Synthesize(workload.NewPartitionedRNG(seed), spec)
	if err != nil {
		return nil, err
	}
	progs := make([]program, 0, len(mix.Progs))
	seen := map[string]bool{}
	for _, p := range mix.Progs {
		if !seen[p.Source] {
			seen[p.Source] = true
			progs = append(progs, program{name: p.Name, source: p.Source})
		}
	}
	return progs, nil
}

// poolSpread is how many candidates sizedPool draws per kept program.
const poolSpread = 16

// Kept program sizes run in even steps on a log scale from sizeLo to
// sizeHi bytes of source.
const sizeLo, sizeHi = 1 << 10, 8 << 10

// sizedPool draws poolSpread*n blend candidates and keeps, for each of n
// fixed target sizes, the unused candidate closest to it. Blend programs
// range from under 1 KB to over 16 KB, and a cache hit's cost is keying,
// which hashes the text; a pool drawn plainly, or even at evenly spaced size
// ranks, holds up to 60% more text for one seed than for another, and a
// run's speed would depend on which seed it got. Fixed targets keep the
// pool's sizes nearly the same for every seed.
func sizedPool(seed int64, n int) ([]program, error) {
	cands, err := mixPool("blend", seed, n*poolSpread)
	if err != nil {
		return nil, err
	}
	used := make([]bool, len(cands))
	kept := make([]program, n)
	for i := range kept {
		target := sizeLo * math.Pow(sizeHi/sizeLo, float64(i)/float64(max(n-1, 1)))
		best := -1
		for j, c := range cands {
			if !used[j] && (best < 0 || math.Abs(math.Log(float64(len(c.source))/target)) <
				math.Abs(math.Log(float64(len(cands[best].source))/target))) {
				best = j
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("sized pool: %d candidates for %d programs", len(cands), n)
		}
		used[best] = true
		kept[i] = cands[best]
	}
	return kept, nil
}

// balanced returns n program indices that use each of k programs equally
// often (to within one), shuffled: a round's work then depends on which
// programs the seed drew, not on how often each was picked.
func balanced(r *det.Rand, n, k int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i % k)
	}
	shuffle(r, order)
	return order
}

func shuffle[T any](r *det.Rand, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

func upTo(n int) []int32 {
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(i)
	}
	return xs
}

// perturbBase gives each round its own block of perturbation seeds, so no
// key repeats within a run.
func perturbBase(seed int64, round int) int64 {
	return 1 + int64(rng(seed, round, streamPerturb).Next()%(1<<40))<<16
}

// hitWarmup is how many times set-up submits each hit-1n program: the first
// pass fills both caches, the rest warm the hit path itself.
const hitWarmup = 64

// hit-1n: a pool of 16 programs, every one submitted during set-up, so every
// measured job hits both caches.
func genHit(seed int64, round, n int) (*roundInput, error) {
	progs, err := sizedPool(seed, 16)
	if err != nil {
		return nil, err
	}
	warm := make([]int32, hitWarmup*len(progs))
	for k := range warm {
		warm[k] = int32(k % len(progs))
	}
	return &roundInput{
		progs:  progs,
		order:  balanced(rng(seed, round, streamOrder), n, len(progs)),
		warmup: warm,
	}, nil
}

// coldChunks splits cold-1n generation into a fixed number of independent
// streams, so the inputs do not depend on how many cores generate them.
const coldChunks = 8

// coldWarmup is the number of extra distinct programs set-up runs.
const coldWarmup = 32

// cold-1n: every job is a distinct program, so both caches miss.
func genCold(seed int64, round, n int) (*roundInput, error) {
	per := (n+coldWarmup)/coldChunks + 8 // slack for cross-chunk duplicates
	chunks := make([][]program, coldChunks)
	errs := make([]error, coldChunks)
	var wg sync.WaitGroup
	sem := make(chan struct{}, nproc)
	for c := range chunks {
		wg.Add(1)
		sem <- struct{}{}
		go func(c int) {
			defer wg.Done()
			defer func() { <-sem }()
			chunks[c], errs[c] = mixPool("blend", int64(rng(seed, round, streamCold+c).Next()>>1), per)
		}(c)
	}
	wg.Wait()
	var progs []program
	seen := map[string]bool{}
	for c, chunk := range chunks {
		if errs[c] != nil {
			return nil, errs[c]
		}
		for _, p := range chunk {
			if !seen[p.source] {
				seen[p.source] = true
				progs = append(progs, p)
			}
		}
	}
	if len(progs) < n+coldWarmup {
		return nil, fmt.Errorf("cold-1n: generated %d distinct programs, need %d", len(progs), n+coldWarmup)
	}
	progs = progs[:n+coldWarmup]
	order := upTo(n)
	shuffle(rng(seed, round, streamOrder), order)
	warm := make([]int32, coldWarmup)
	for k := range warm {
		warm[k] = int32(n + k)
	}
	return &roundInput{progs: progs, order: order, warmup: warm}, nil
}

// splashProgs renders the five SPLASH-2 analogues once per process.
var splashProgs = sync.OnceValue(func() []program {
	var progs []program
	for _, b := range splash.All(threads) {
		progs = append(progs, program{name: b.Name, source: b.Module.String()})
	}
	return progs
})

// splash-race-1n: the paper's kernels with the race detector on and a fresh
// perturbation seed per job, so instrumentation hits and results miss.
func genSplash(seed int64, round, n int) (*roundInput, error) {
	progs := splashProgs()
	return &roundInput{
		progs:       progs,
		order:       balanced(rng(seed, round, streamOrder), n, len(progs)),
		perturbBase: perturbBase(seed, round),
		race:        true,
		warmup:      upTo(len(progs)),
	}, nil
}

// fillPool is the number of distinct programs behind fill-3n's fresh keys.
// They are ring-idiom programs: all about 1.1 KB and cheap to simulate, so
// routing, peer fills and offers are most of a job's work and a round costs
// the same for every seed. Blend programs would make simulation most of the
// work, with a cost that varies twentyfold between programs.
const fillPool = 64

// fill-3n: fresh keys over a small program pool, each sent to a non-owner;
// exactly half were computed on their owner during set-up.
func genFill(seed int64, round, n int) (*roundInput, error) {
	progs, err := mixPool("ring", seed, fillPool)
	if err != nil {
		return nil, err
	}
	flags := make([]uint8, n)
	r := rng(seed, round, streamFlags)
	for i := range flags {
		if i < n/2 {
			flags[i] = flagWarm
		}
	}
	shuffle(r, flags)
	for i := range flags {
		if r.IntN(2) == 1 {
			flags[i] |= flagPeer
		}
	}
	return &roundInput{
		progs:       progs,
		order:       balanced(rng(seed, round, streamOrder), n, len(progs)),
		perturbBase: perturbBase(seed, round),
		flags:       flags,
		warmup:      upTo(len(progs)),
	}, nil
}
