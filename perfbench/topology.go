package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// topology is one round's system under test: a single service, or a LoopNet
// cluster of static peers with every background loop off (as the workload
// plane's test clusters run), so no timer-driven work competes with the jobs.
type topology struct {
	svcs  []*service.Service
	nodes []*cluster.Node // nil for a single service
}

// openTopology opens one service, or a cluster whose transport records its
// calls into wire when wire is non-nil. A resultCache of 0 keeps the
// service's default cache sizes.
func openTopology(nodes, resultCache int, wire *wireRec) (*topology, error) {
	svcCfg := service.Config{Workers: nproc, ResultCacheSize: resultCache}
	if nodes == 1 {
		return &topology{svcs: []*service.Service{service.New(svcCfg)}}, nil
	}
	t := &topology{}
	net := cluster.NewLoopNet()
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%d", i)
	}
	for _, self := range addrs {
		n, err := cluster.Open(cluster.Config{
			Self:           self,
			Peers:          addrs,
			Client:         &meteredDoer{next: net.Client(self), rec: wire},
			Service:        svcCfg,
			ProbeInterval:  -1,
			StealInterval:  -1,
			ShipInterval:   -1,
			GossipInterval: -1,
			RepairInterval: -1,
			FillTimeout:    2 * time.Second,
		})
		if err != nil {
			t.close()
			return nil, err
		}
		net.Register(self, n.Handler())
		t.nodes = append(t.nodes, n)
		t.svcs = append(t.svcs, n.Service())
	}
	return t, nil
}

func (t *topology) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var first error
	if t.nodes != nil {
		for _, n := range t.nodes {
			if err := n.Close(ctx); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for _, s := range t.svcs {
		if err := s.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// counters sums the layer counters a round's shape checks and per-layer
// metrics read, over every node.
type counters struct {
	instrHits, instrMisses   int64
	resultHits, resultMisses int64
	rejected                 int64
	fillAttempts, fillHits   int64
	fillHedges               int64
}

func (t *topology) counters() counters {
	var c counters
	for _, s := range t.svcs {
		snap := s.Snapshot()
		c.instrHits += snap.InstrCacheHits
		c.instrMisses += snap.InstrCacheMisses
		c.resultHits += snap.ResultCacheHits
		c.resultMisses += snap.ResultCacheMisses
		c.rejected += snap.JobsRejected
	}
	for _, n := range t.nodes {
		st := n.Stats()
		c.fillAttempts += st.FillAttempts
		c.fillHits += st.FillHits
		c.fillHedges += st.FillHedges
	}
	return c
}

// plus returns c + sign*o, field by field.
func (c counters) plus(o counters, sign int64) counters {
	return counters{
		instrHits: c.instrHits + sign*o.instrHits, instrMisses: c.instrMisses + sign*o.instrMisses,
		resultHits: c.resultHits + sign*o.resultHits, resultMisses: c.resultMisses + sign*o.resultMisses,
		rejected:     c.rejected + sign*o.rejected,
		fillAttempts: c.fillAttempts + sign*o.fillAttempts, fillHits: c.fillHits + sign*o.fillHits,
		fillHedges: c.fillHedges + sign*o.fillHedges,
	}
}

// span accumulates the calls and busy nanoseconds of one span name.
type span struct {
	n, ns atomic.Int64
}

func (s *span) add(d time.Duration) {
	s.n.Add(1)
	s.ns.Add(int64(d))
}

// meanUS is the mean span length in microseconds (0 with no calls).
func (s *span) meanUS() float64 {
	if n := s.n.Load(); n > 0 {
		return float64(s.ns.Load()) / float64(n) / 1e3
	}
	return 0
}

// tracer collects the spans, counters and replayed layers of every traced
// round of a run.
type tracer struct {
	submit, wait, route span
	wire                wireRec
	layers              layerTotals
	ctr                 counters
	jobs                int64
}

// wireRec holds the transport spans of traced cluster rounds: one per peer
// call, split by kind, plus the bytes that crossed the wire both ways.
type wireRec struct {
	fillHit, fillMiss, offer span
	bytes                    atomic.Int64
}

// meteredDoer is the cluster transport the benchmark hands each node: the
// LoopNet client, timed per call when rec is set.
type meteredDoer struct {
	next cluster.Doer
	rec  *wireRec
}

func (d *meteredDoer) Do(req *http.Request) (*http.Response, error) {
	if d.rec == nil {
		return d.next.Do(req)
	}
	start := time.Now()
	resp, err := d.next.Do(req)
	el := time.Since(start)
	if req.ContentLength > 0 {
		d.rec.bytes.Add(req.ContentLength)
	}
	if err != nil {
		return resp, err
	}
	switch {
	case strings.HasPrefix(req.URL.Path, "/internal/v1/result"):
		if resp.StatusCode == http.StatusOK {
			d.rec.fillHit.add(el)
		} else {
			d.rec.fillMiss.add(el)
		}
	case strings.HasPrefix(req.URL.Path, "/internal/v1/offer"):
		d.rec.offer.add(el)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &d.rec.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
