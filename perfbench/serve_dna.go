package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	repro "repro"
	"repro/client"
	"repro/internal/resultcache"
	"repro/internal/server"
	"repro/internal/wavefront"
)

const (
	// serveRequestsPerSecond sizes the timed stream: about --seconds of
	// closed-loop load on a 2-core host.
	serveRequestsPerSecond = 100
	// serveHotSet triples are the repeated keys.
	serveHotSet = 64
	// serveCacheBytes holds about 800 entries of this workload's triples,
	// so warming it until it evicts takes a few hundred fills.
	serveCacheBytes = 8 << 20
	// serveWarmMax bounds the unique triples generated for warm-up.
	serveWarmMax = 2000
	// serveCoalesceTick and the 0.90 near-duplicate identity (the zero
	// value of server.Config.CacheNearDupIdentity) are alignd's defaults.
	serveCoalesceTick    = 2 * time.Millisecond
	serveNearDupIdentity = 0.90
)

// Request-correlation headers the traced run adds on the client side and
// reads in the handler wrapper.
const (
	hdrReq    = "X-Perfbench-Req"
	hdrParent = "X-Perfbench-Span"
)

type traceIDs struct{ req, span int64 }

type traceKey struct{}

// traceTransport stamps the request and client span ids from the context
// onto the outgoing request.
type traceTransport struct{ next http.RoundTripper }

func (t traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ids, ok := r.Context().Value(traceKey{}).(traceIDs); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrReq, strconv.FormatInt(ids.req, 10))
		r.Header.Set(hdrParent, strconv.FormatInt(ids.span, 10))
	}
	return t.next.RoundTrip(r)
}

// traceHandler records a server.handler.<cache state> span for every
// stamped request, as a child of the client's span.
func traceHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		t0 := time.Now()
		next.ServeHTTP(w, r)
		if req != 0 {
			rec.add("server.handler."+w.Header().Get("X-Cache"), parent, req, t0, time.Now())
		}
	})
}

// liveServer is alignd in process: the server, its loopback HTTP
// listener, and a client with retries off and at most nproc connections.
type liveServer struct {
	srv       *server.Server
	hs        *http.Server
	served    chan struct{} // closed when Serve returns
	transport *http.Transport
	cl        *client.Client
}

func startServer(nproc int, rec *recorder) (*liveServer, error) {
	srv := server.New(server.Config{CoalesceTick: serveCoalesceTick, CacheBytes: serveCacheBytes})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := srv.Handler()
	transport := &http.Transport{MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc}
	var rt http.RoundTripper = transport
	if rec != nil {
		h = traceHandler(rec, h)
		rt = traceTransport{next: transport}
	}
	l := &liveServer{
		srv:       srv,
		hs:        &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served:    make(chan struct{}),
		transport: transport,
		cl: client.New(client.Config{
			BaseURL:    "http://" + ln.Addr().String(),
			HTTPClient: &http.Client{Transport: rt},
			MaxRetries: -1,
		}),
	}
	go func() {
		defer close(l.served)
		if err := l.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
		}
	}()
	return l, nil
}

// stop drains and closes the server and waits for its listener goroutine.
func (l *liveServer) stop() {
	l.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = l.hs.Shutdown(ctx) // a timed-out shutdown still closes the listener
	<-l.served
	l.srv.Close()
	l.transport.CloseIdleConnections()
}

// served is one request's outcome.
type served struct {
	resp *client.AlignResponse
	err  error
	lat  float64 // ms
}

// sendAll sends every triple from nproc closed-loop callers and returns
// the outcomes in input order with the wall time. With a recorder, each
// request is a client.call span whose id reaches the handler wrapper.
func sendAll(ctx context.Context, cl *client.Client, trs []repro.Triple, nproc int, rec *recorder, reqBase int64) ([]served, time.Duration) {
	out := make([]served, len(trs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(trs) {
					return
				}
				tr := trs[i]
				body := &client.AlignRequest{A: tr.A.String(), B: tr.B.String(), C: tr.C.String()}
				rctx := ctx
				req := reqBase + int64(i) + 1
				var id int64
				if rec != nil {
					id = rec.begin("client.call", 0, req)
					rctx = context.WithValue(ctx, traceKey{}, traceIDs{req: req, span: id})
				}
				t0 := time.Now()
				resp, err := cl.Align(rctx, body)
				out[i] = served{resp: resp, err: err, lat: ms(time.Since(t0))}
				rec.end(id)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// warmServer fills a fresh server's cache the way a long-running alignd
// would be: the hot set, then unique triples until the cache evicts, then
// the hot set again so it is cached and recently used. It returns how
// many warm triples it sent.
func warmServer(ctx context.Context, l *liveServer, in serveInputs, nproc int) (int, error) {
	send := func(trs []repro.Triple) error {
		out, _ := sendAll(ctx, l.cl, trs, nproc, nil, 0)
		for _, s := range out {
			if s.err != nil {
				return fmt.Errorf("warm-up request: %w", s.err)
			}
		}
		return nil
	}
	if err := send(in.hot); err != nil {
		return 0, err
	}
	chunk := 16 * nproc
	used := 0
	for {
		if used >= len(in.warm) {
			return 0, fmt.Errorf("cache did not evict after %d warm-up triples", used)
		}
		n := min(chunk, len(in.warm)-used)
		if err := send(in.warm[used : used+n]); err != nil {
			return 0, err
		}
		used += n
		st, err := l.cl.Stats(ctx)
		if err != nil {
			return 0, err
		}
		if st.CacheEvictions > 0 {
			break
		}
	}
	return used, send(in.hot)
}

func runServeDNA(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	count := serveRequestsPerSecond * cfg.seconds
	var in serveInputs
	var live *liveServer
	var warmUsed int
	defer func() {
		if live != nil {
			live.stop()
		}
	}()
	boot := func(rec *recorder) error {
		if live != nil {
			live.stop()
			live = nil
		}
		in = serveStream(cfg.seed, serveHotSet, serveWarmMax, count)
		l, err := startServer(cfg.nproc, rec)
		if err != nil {
			return err
		}
		live = l
		warmUsed, err = warmServer(ctx, l, in, cfg.nproc)
		return err
	}
	if err := setUp(cfg, rep, func() error { return boot(nil) }); err != nil {
		return nil, err
	}
	trs := make([]repro.Triple, len(in.reqs))
	for i, r := range in.reqs {
		trs[i] = r.tr
	}

	heap := startHeapSampler()
	ph, err := servePhase(ctx, live, trs, cfg.nproc, nil)
	if err != nil {
		return nil, err
	}
	rep.e2e["peak_heap_mib"] = heap.Stop()

	var lat []float64
	var servedCells float64
	for i, s := range ph.out {
		if s.err == nil {
			lat = append(lat, s.lat)
			servedCells += cells(trs[i])
		}
	}
	rep.e2e["ops_per_s"] = float64(count) / ph.wall.Seconds()
	rep.e2e["latency_p50_ms"] = median(lat)
	rep.tail = tailPercentile(lat)
	rep.e2e["latency_tail_ms"] = rep.tail.Value
	rep.e2e["mcells_per_s"] = servedCells / ph.wall.Seconds() / 1e6
	// The median pass: each lasts well under a tenth of a second, so a
	// single preemption can halve one pass's rate.
	rep.e2e["mcells_per_s_1w"] = median(ph.libRates)
	rep.notef("%d requests from %d callers in %.3fs after %d warm-up triples; mcells are the lattices of the triples served",
		count, cfg.nproc, ph.wall.Seconds(), warmUsed)
	sch, err := repro.DefaultScheme(repro.DNA)
	if err != nil {
		return nil, err
	}
	gaps := verifyServe(rep, trs, ph, sch)
	rep.e2e["sp_gap_per_family"] = mean(gaps)

	if cfg.trace {
		runtimeLayer(rep, ph.mem, count)
		rec := newRecorder()
		if err := boot(rec); err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		tph, err := servePhase(ctx, live, trs, cfg.nproc, rec)
		if err != nil {
			return nil, err
		}
		wavefrontLayer(rep, tph.sched, count)
		overheadLayer(rep, ph.wall, tph.wall)
		verifyServe(rep, trs, tph, sch)
		serveLayers(rep, in, trs, tph)
		if err := replayCache(rep, in, warmUsed, tph.lib, rec, int64(2*count)); err != nil {
			return nil, err
		}
		rep.spans = rec.all()
		st := summarize(rep.spans)
		for _, state := range []string{"hit", "miss", "near-dup"} {
			rep.layer["server.handler_ms."+state] = median(st.dur["server.handler."+state]) / 1000
		}
		rep.layer["client.transport_us"] = median(st.self["client.call"])
		rep.layer["repro.overhead_us"] = median(st.self["repro.align"])
		rep.layer["seq.sketch_us"] = median(st.dur["seq.sketch"])
		rep.layer["plan.resolve_us"] = median(st.dur["plan.resolve"])
		for _, name := range []string{"get", "nearest", "put"} {
			rep.layer["resultcache."+name+"_us"] = median(st.dur["resultcache."+name])
		}
	}
	return rep, nil
}

// phase is one timed serve-dna stream with its library reference.
type phase struct {
	out           []served
	wall          time.Duration // serving time, library passes excluded
	before, after *client.Statsz
	sched         wavefront.SchedStats // scheduler work while serving
	mem           memDelta             // allocation and GC while serving
	// lib holds the library's answer for every distinct triple; libRates
	// holds each library pass's Mcells/s.
	lib      map[string]*repro.Result
	libRates []float64
}

// libRepeats is how many times each round's library pass runs.
const libRepeats = 2

// libraryPass aligns the triples with the library at one worker per call
// from nproc concurrent callers — the capacity the server's kernels could
// reach without HTTP, admission, cache and coalescer — and returns the
// results in order with the pass's wall time. Keeping every core busy
// also keeps the measurement clear of the single-core clock boost, which
// on a shared host moves a one-core rate run to run. Traced, each call is
// a repro.align span with its kernel time as a core.kernel child.
func libraryPass(ctx context.Context, trs []repro.Triple, nproc int, rec *recorder, reqBase int64) ([]*repro.Result, time.Duration, error) {
	res := make([]*repro.Result, len(trs))
	errs := make([]error, len(trs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(trs) {
					return
				}
				t0 := time.Now()
				res[i], errs[i] = repro.AlignContext(ctx, trs[i], repro.Options{Workers: 1})
				if t1 := time.Now(); res[i] != nil {
					id := rec.add("repro.align", 0, reqBase+int64(i)+1, t0, t1)
					rec.add("core.kernel", id, reqBase+int64(i)+1, t1.Add(-res[i].Elapsed), t1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("library alignment: %w", err)
		}
	}
	return res, wall, nil
}

// servePhase sends the stream in rounds (see interleave). Each round
// serves its chunk of requests from nproc closed-loop callers, then the
// server idles while libraryPass aligns the chunk's distinct triples,
// libRepeats times. The library's answers are the reference the served
// ones must equal, and its rate, measured in every round, is the
// workload's one-worker-per-alignment rate.
func servePhase(ctx context.Context, l *liveServer, trs []repro.Triple, nproc int, rec *recorder) (*phase, error) {
	ph := &phase{out: make([]served, len(trs)), lib: map[string]*repro.Result{}}
	var err error
	if ph.before, err = l.cl.Stats(ctx); err != nil {
		return nil, err
	}
	n := len(trs)
	for r := 0; r < rounds; r++ {
		lo, hi := r*n/rounds, (r+1)*n/rounds
		ws, m0 := wavefront.Stats(), snapMem()
		out, wall := sendAll(ctx, l.cl, trs[lo:hi], nproc, rec, int64(lo))
		ph.sched = addSched(ph.sched, wavefront.Stats().Sub(ws))
		ph.mem = ph.mem.add(m0, snapMem())
		copy(ph.out[lo:], out)
		ph.wall += wall

		var distinct []repro.Triple
		seen := map[string]bool{}
		for _, tr := range trs[lo:hi] {
			if k := tripleKey(tr); !seen[k] {
				seen[k] = true
				distinct = append(distinct, tr)
			}
		}
		for rep := 0; rep < libRepeats; rep++ {
			prec := rec
			if rep > 0 {
				prec = nil
			}
			res, wall, err := libraryPass(ctx, distinct, nproc, prec, int64(n+lo))
			if err != nil {
				return nil, err
			}
			var c float64
			for j, tr := range distinct {
				c += cells(tr)
				if k := tripleKey(tr); ph.lib[k] == nil {
					ph.lib[k] = res[j]
				}
			}
			ph.libRates = append(ph.libRates, c/wall.Seconds()/1e6)
		}
	}
	if ph.after, err = l.cl.Stats(ctx); err != nil {
		return nil, err
	}
	return ph, nil
}

// verifyServe checks every response against the library and the cache
// states against the /statsz deltas. Each failed request, wrong answer,
// or disagreeing counter is a failed operation. It returns the per-
// response gap between the pairwise upper bound and the served score.
func verifyServe(rep *report, trs []repro.Triple, ph *phase, sch *repro.Scheme) []float64 {
	out, lib, before, after := ph.out, ph.lib, ph.before, ph.after
	states := map[string]int64{}
	bounds := map[string]int32{}
	var gaps []float64
	var ok int64
	rep.attempted += len(out)
	for i, s := range out {
		if s.err != nil {
			rep.failed++
			rep.notef("request %d failed: %v", i, s.err)
			continue
		}
		ok++
		states[s.resp.Cache]++
		tr := trs[i]
		k := tripleKey(tr)
		if err := verifyServed(s.resp.Score, s.resp.Rows, lib[k]); err != nil {
			rep.mismatch("serve-dna request %d (%s): %v", i, s.resp.Cache, err)
			continue
		}
		b, seen := bounds[k]
		if !seen {
			b = pairBound([]*repro.Sequence{tr.A, tr.B, tr.C}, sch)
			bounds[k] = b
		}
		gaps = append(gaps, float64(b-s.resp.Score))
	}
	checks := []struct {
		what      string
		got, want int64
	}{
		{"X-Cache hit vs cache_hits", states["hit"], after.CacheHits - before.CacheHits},
		{"X-Cache near-dup vs cache_near_dup_patched", states["near-dup"], after.CacheNearDupPatched - before.CacheNearDupPatched},
		{"X-Cache miss+near-dup vs cache_fills", states["miss"] + states["near-dup"], after.CacheFills - before.CacheFills},
		{"X-Cache collapsed vs cache_collapsed", states["collapsed"], after.CacheCollapsed - before.CacheCollapsed},
		{"200 responses vs completed", ok, after.Completed - before.Completed},
	}
	for _, c := range checks {
		if c.got != c.want {
			rep.mismatch("serve-dna %s: %d responses, statsz delta %d", c.what, c.got, c.want)
		}
	}
	rep.notef("cache states: hit=%d miss=%d near-dup=%d collapsed=%d", states["hit"], states["miss"], states["near-dup"], states["collapsed"])
	return gaps
}

// serveLayers derives the server, planner and kernel metrics of the
// traced stream from its responses and /statsz deltas.
func serveLayers(rep *report, in serveInputs, trs []repro.Triple, ph *phase) {
	out, before, after := ph.out, ph.before, ph.after
	var nearSent int
	for _, r := range in.reqs {
		if r.kind == kindNearDup {
			nearSent++
		}
	}
	d := func(a, b int64) float64 { return float64(b - a) }
	rep.layer["server.hit_ratio"] = d(before.CacheHits, after.CacheHits) / float64(len(out))
	if nearSent > 0 {
		rep.layer["server.neardup_patch_ratio"] = d(before.CacheNearDupPatched, after.CacheNearDupPatched) / float64(nearSent)
	}
	if b := d(before.CoalescedBatches, after.CoalescedBatches); b > 0 {
		rep.layer["server.coalesce_batch_mean"] = d(before.CoalescedRequests, after.CoalescedRequests) / b
	}
	rep.layer["server.shed"] = d(before.Shed, after.Shed)
	rep.layer["server.degraded"] = d(before.Degraded, after.Degraded)

	tally := newKernelTally()
	var ratios, kernelMS []float64
	var evaluated, lattice float64
	for i, s := range out {
		if s.err != nil || (s.resp.Cache != "miss" && s.resp.Cache != "near-dup") {
			continue
		}
		el := time.Duration(s.resp.ElapsedMS * float64(time.Millisecond))
		c := cells(trs[i])
		tally.ran(s.resp.Algorithm)
		tally.timed(s.resp.Algorithm, c, el)
		kernelMS = append(kernelMS, s.resp.ElapsedMS)
		if s.resp.Cache == "near-dup" {
			evaluated += float64(s.resp.EvaluatedCells)
			lattice += c
		} else if s.resp.Plan != nil && s.resp.Plan.EstDuration > 0 {
			ratios = append(ratios, el.Seconds()/s.resp.Plan.EstDuration.Seconds())
		}
	}
	tally.fill(rep)
	estRatios(rep, ratios)
	rep.layer["core.kernel_ms_p50"] = median(kernelMS)
	if lattice > 0 {
		rep.layer["core.bounded_eval_fraction"] = evaluated / lattice
	}
}

// replayCache times the cache layer, which the server calls internally:
// it replays the warm-up and the served stream, in order, against a cache
// the benchmark owns with the server's budget. Each timed request is
// sketched and planned as the server does, looked up, and on a miss
// probed for a near duplicate and filled with the library's answer.
func replayCache(rep *report, in serveInputs, warmUsed int, lib map[string]*repro.Result, rec *recorder, reqBase int64) error {
	c := resultcache.New(serveCacheBytes)
	sch, err := repro.DefaultScheme(repro.DNA)
	if err != nil {
		return err
	}
	answer := func(tr repro.Triple) (*repro.Result, error) {
		k := tripleKey(tr)
		if res := lib[k]; res != nil {
			return res, nil
		}
		res, err := repro.AlignContext(context.Background(), tr, repro.Options{Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("replay alignment: %w", err)
		}
		lib[k] = res
		return res, nil
	}
	fill := func(tr repro.Triple) error {
		res, err := answer(tr)
		if err != nil {
			return err
		}
		key, meta := resultcache.KeyFor(tr, sch, "")
		if _, ok := c.Get(key); !ok {
			c.Put(key, meta, res, res.Plan.EstDuration, repro.SketchTriple(tr))
		}
		return nil
	}
	warm := append(append(append([]repro.Triple(nil), in.hot...), in.warm[:warmUsed]...), in.hot...)
	for _, tr := range warm {
		if err := fill(tr); err != nil {
			return err
		}
	}
	for i, r := range in.reqs {
		req := reqBase + int64(i) + 1
		tr := r.tr
		t0 := time.Now()
		sk := repro.SketchTriple(tr)
		rec.add("seq.sketch", 0, req, t0, time.Now())
		t0 = time.Now()
		pl, err := repro.PlanAlign(tr, repro.Options{Sketch: sk})
		if err != nil {
			return fmt.Errorf("replay plan: %w", err)
		}
		rec.add("plan.resolve", 0, req, t0, time.Now())
		key, meta := resultcache.KeyFor(tr, sch, "")
		t0 = time.Now()
		_, hit := c.Get(key)
		rec.add("resultcache.get", 0, req, t0, time.Now())
		if hit {
			continue
		}
		t0 = time.Now()
		c.Nearest(sk, meta, serveNearDupIdentity)
		rec.add("resultcache.nearest", 0, req, t0, time.Now())
		res, err := answer(tr)
		if err != nil {
			return err
		}
		t0 = time.Now()
		c.Put(key, meta, res, pl.EstDuration, sk)
		rec.add("resultcache.put", 0, req, t0, time.Now())
	}
	rep.layer["resultcache.entries"] = float64(c.Len())
	return nil
}
