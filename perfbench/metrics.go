package main

import (
	"math"
	"math/bits"
	"sort"
)

// metricDef names one reported metric. The end-to-end set is printed by an
// untraced run, the per-layer set by a traced one (--trace 1); BENCHMARK.json
// declares the same names and units.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

var endToEnd = []metricDef{
	{"jobs_per_s", "jobs/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"success_frac", "ratio", "higher"},
	{"setup_s", "s", "lower"},
	{"cpu_us_per_job", "us", "lower"},
	{"alloc_bytes_per_job", "B", "lower"},
	{"peak_heap_mib", "MiB", "lower"},
}

var perLayer = []metricDef{
	{"service.submit_us", "us", "lower"},
	{"service.wait_us", "us", "lower"},
	{"service.key_us", "us", "lower"},
	{"service.instr_hit_frac", "ratio", "higher"},
	{"service.result_hit_frac", "ratio", "higher"},
	{"service.rejected_frac", "ratio", "lower"},
	{"ir.parse_us", "us", "lower"},
	{"ir.print_us", "us", "lower"},
	{"ir.clone_us", "us", "lower"},
	{"ir.alloc_bytes_per_job", "B", "lower"},
	{"core.instrument_us", "us", "lower"},
	{"core.alloc_bytes_per_job", "B", "lower"},
	{"sim.run_us", "us", "lower"},
	{"sim.steps_per_job", "count", "lower"},
	{"sim.steps_per_s", "1/s", "higher"},
	{"sim.acquisitions_per_job", "count", "lower"},
	{"sim.alloc_bytes_per_job", "B", "lower"},
	{"interp.race_us", "us", "lower"},
	{"interp.instrs_per_job", "count", "lower"},
	{"interp.mips", "Minstr/s", "higher"},
	{"trace.hash_us", "us", "lower"},
	{"trace.alloc_bytes_per_job", "B", "lower"},
	{"cluster.route_us", "us", "lower"},
	{"cluster.fill_rtt_us", "us", "lower"},
	{"cluster.fill_miss_rtt_us", "us", "lower"},
	{"cluster.offer_rtt_us", "us", "lower"},
	{"cluster.fill_hit_frac", "ratio", "higher"},
	{"cluster.wire_bytes_per_job", "B", "lower"},
	{"cluster.hedges_per_job", "count", "lower"},
	{"bench.tracing_overhead_frac", "ratio", "lower"},
	{"bench.unattributed_frac", "ratio", "lower"},
	{"bench.alloc_bytes_per_job", "B", "lower"},
	{"bench.peak_heap_mib", "MiB", "lower"},
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hist is a log-linear latency histogram: values below 2^subBits are exact,
// larger ones fall into 2^subBits buckets per power of two, so a quantile is
// off by at most 1/2^subBits of its value. It keeps the latency of every job
// without storing one sample per job.
type hist struct {
	counts []int64
	n      int64
}

const subBits = 7

func newHist() *hist { return &hist{counts: make([]int64, 64<<subBits)} }

func bucketOf(v int64) int {
	if v < 1<<subBits {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1))
	sub := int(v>>(e-subBits)) & (1<<subBits - 1)
	return (e-subBits+1)<<subBits | sub
}

// bucketRange is the low end and width of bucket i's value range.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	e := i>>subBits + subBits - 1
	sub := i & (1<<subBits - 1)
	width = math.Ldexp(1, e-subBits)
	return float64(int64(1)<<e) + float64(sub)*width, width
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the value at fraction q of the recorded samples, placing
// the samples of a bucket evenly across its range.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	rank = min(max(rank, 1), h.n)
	var seen int64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, width := bucketRange(i)
			return lo + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	lo, width := bucketRange(len(h.counts) - 1)
	return lo + width/2
}

// blockQuantile splits rounds, in order, into blocks of at least enough
// samples for ten of them to lie beyond fraction q (a short last block joins
// the one before it), and returns the median over blocks of each block's
// quantile q. One round slowed by the host then moves a percentile no more
// than it moves the median round.
func blockQuantile(rounds []*roundResult, q float64) float64 {
	need := int64(math.Ceil(10/(1-q) - 1e-9)) // 1-0.9 is a little below 0.1
	var blocks []*hist
	for _, rr := range rounds {
		if len(blocks) == 0 || blocks[len(blocks)-1].n >= need {
			blocks = append(blocks, newHist())
		}
		blocks[len(blocks)-1].merge(rr.lat)
	}
	if k := len(blocks); k > 1 && blocks[k-1].n < need {
		blocks[k-2].merge(blocks[k-1])
		blocks = blocks[:k-1]
	}
	vals := make([]float64, len(blocks))
	for i, b := range blocks {
		vals[i] = b.quantile(q)
	}
	return median(vals)
}
