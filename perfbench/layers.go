package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/fastrepro/fast/internal/bloom"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/feature"
	"github.com/fastrepro/fast/internal/imgproc"
	"github.com/fastrepro/fast/internal/router"
	"github.com/fastrepro/fast/internal/server"
	"github.com/fastrepro/fast/internal/simimg"
)

// layerProbes is how many probes the in-process per-layer timings use.
const layerProbes = 64

// counters is a point-in-time read of every layer's cumulative counters.
type counters struct {
	srv         server.Stats // summed over serving nodes
	simAccesses int64
	rt          router.Stats
	reqBytes    int64 // /v1/query request bytes into the serving node (shard 0 when routed)
	reqs        int64
	shardBytes  int64 // routed: /v1/query request bytes into all shards
}

func readCounters(s *system) counters {
	var c counters
	add := func(srv *server.Server, eng *core.Engine) {
		st := srv.Stats()
		c.srv.Queries += st.Queries
		c.srv.AdmissionRejected += st.AdmissionRejected
		c.srv.SummaryCacheHits += st.SummaryCacheHits
		c.srv.SummaryCacheMisses += st.SummaryCacheMisses
		c.srv.ResultCacheHits += st.ResultCacheHits
		c.srv.ResultCacheMisses += st.ResultCacheMisses
		c.srv.CacheSingleflightWaits += st.CacheSingleflightWaits
		c.srv.TieredSpillProbes += st.TieredSpillProbes
		c.srv.TieredPostingsScanned += st.TieredPostingsScanned
		c.srv.TieredBytesScanned += st.TieredBytesScanned
		c.srv.TieredMigrations += st.TieredMigrations
		c.srv.TieredCompactions += st.TieredCompactions
		c.srv.QueueWaitP99Ns = max(c.srv.QueueWaitP99Ns, st.QueueWaitP99Ns)
		c.srv.QueryBatches += st.QueryBatches
		c.srv.QueryBatchMean += st.QueryBatchMean * float64(st.QueryBatches) // a sum of probes until divided below
		c.simAccesses += eng.Stats().Sim.Accesses
	}
	if s.rt != nil {
		for _, sh := range s.shards {
			add(sh.srv, sh.eng)
			c.shardBytes += sh.tr.queryBytes.Load()
		}
		c.rt = s.rt.Stats(context.Background())
		c.reqBytes, c.reqs = s.shards[0].tr.queryBytes.Load(), s.shards[0].tr.queries.Load()
	} else {
		add(s.srv, s.eng)
		c.reqBytes, c.reqs = s.frontTr.queryBytes.Load(), s.frontTr.queries.Load()
	}
	if c.srv.QueryBatches > 0 {
		c.srv.QueryBatchMean /= float64(c.srv.QueryBatches)
	}
	return c
}

// runTraced reports the per-layer metrics. It replays the reference
// phase of the untraced run on a freshly booted system, tracing every
// other request. Counter deltas over the replay, the spans, and
// in-process timings of each layer's public functions on a sample of the
// probes give the layer metrics; the rate ladder, run untraced after the
// replay, gives the serving tail and capacity figures.
func (b *bench) runTraced(traceDir string) error {
	if err := b.prepare(true); err != nil {
		return err
	}
	tr := newTracer()
	sys, err := b.setup(tr, 0)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer sys.close()
	chk := newChecker(b, sys)
	ref, err := b.measureLayers(sys, tr, chk)
	if err != nil {
		return err
	}
	if err := b.runLadder(sys, chk, ref); err != nil {
		return err
	}
	if err := b.measureFunctions(sys); err != nil {
		return err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, b.name+"-seed"+strconv.FormatInt(b.seed, 10)+".jsonl")
	if err := tr.writeFile(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}

// target is what the reference phase drives: the node over HTTP, or the
// router in-process so its per-shard spans share the request's ID.
func (b *bench) target(sys *system) target {
	if sys.rt != nil {
		return routerTarget(sys, topK)
	}
	return httpTarget(sys, topK)
}

// measureLayers runs the traced replay on sys, gates it, and derives the
// per-layer metrics of counters and spans.
func (b *bench) measureLayers(sys *system, tr *tracer, chk *checker) (*phaseResult, error) {
	before := readCounters(sys)
	stopSampler, pendingMax := samplePending(sys)
	r := execPhase(b.ref, b.target(sys), &b.in, b.conns, tr)
	stopSampler()
	quiesce := time.Duration(0)
	if sys.rt != nil {
		t0 := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err := sys.rt.QuiesceReplicas(ctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("quiesce replicas: %w", err)
		}
		quiesce = time.Since(t0)
	}
	after := readCounters(sys)
	if _, err := chk.gate(r); err != nil {
		return nil, err
	}
	b.res.add(r)
	b.checkDigest(r)
	spans := tr.snapshot()
	set := b.res.set
	set("loadgen.late_p99_ms", percentile(millis(r.late), 99), "ms", len(r.late))
	traced, untraced := r.readLatencies(false, 0), r.readLatencies(false, 1)
	set("trace.overhead_frac", median(traced)/median(untraced)-1, "frac", len(traced))

	// Counters over the traced replay.
	d := func(a, b int64) float64 { return float64(a - b) }
	queries := max(d(after.srv.Queries, before.srv.Queries), 1)
	set("core.sim_accesses_per_query", float64(after.simAccesses-before.simAccesses)/queries, "count", int(queries))
	set("cache.summary_hit_rate", ratio(d(after.srv.SummaryCacheHits, before.srv.SummaryCacheHits), d(after.srv.SummaryCacheMisses, before.srv.SummaryCacheMisses)), "frac", int(queries))
	set("cache.result_hit_rate", ratio(d(after.srv.ResultCacheHits, before.srv.ResultCacheHits), d(after.srv.ResultCacheMisses, before.srv.ResultCacheMisses)), "frac", int(queries))
	set("cache.singleflight_waits", d(after.srv.CacheSingleflightWaits, before.srv.CacheSingleflightWaits), "count", 1)
	set("tiered.spill_probes_per_query", d(after.srv.TieredSpillProbes, before.srv.TieredSpillProbes)/queries, "count", int(queries))
	set("tiered.postings_per_query", d(after.srv.TieredPostingsScanned, before.srv.TieredPostingsScanned)/queries, "count", int(queries))
	set("tiered.bytes_scanned_per_query", d(after.srv.TieredBytesScanned, before.srv.TieredBytesScanned)/queries, "B", int(queries))
	set("tiered.migrations", d(after.srv.TieredMigrations, before.srv.TieredMigrations), "count", 1)
	set("tiered.compactions", d(after.srv.TieredCompactions, before.srv.TieredCompactions), "count", 1)
	set("server.queue_wait_p99_ms", float64(after.srv.QueueWaitP99Ns)/1e6, "ms", int(queries))
	set("server.batch_mean", after.srv.QueryBatchMean, "count", int(after.srv.QueryBatches))
	set("server.rejected", d(after.srv.AdmissionRejected, before.srv.AdmissionRejected), "count", 1)
	reqs := max(d(after.reqs, before.reqs), 1)
	set("server.request_bytes", d(after.reqBytes, before.reqBytes)/reqs, "B", int(reqs))

	// The snapshot store, from the save calls and their responses.
	var written, chunks, reused float64
	for _, s := range r.saves {
		written += float64(s.PhysicalBytes)
		chunks += float64(s.Chunks)
		reused += float64(s.ChunksReused)
	}
	set("store.save_ms", percentile(millis(r.saveTimes), 50), "ms", len(r.saves))
	set("store.bytes_written_per_save", written/float64(max(len(r.saves), 1)), "B", len(r.saves))
	set("store.chunks_reused_frac", reused/max(chunks, 1), "frac", len(r.saves))

	// The router and replicas, from the spans of routed calls and the
	// router's counters.
	b.routerMetrics(spans)
	routed := max(d(after.rt.Queries, before.rt.Queries), 1)
	set("router.shard_request_bytes_per_query", d(after.shardBytes, before.shardBytes)/routed, "B", int(routed))
	set("router.hedged", d(after.rt.HedgedQueries, before.rt.HedgedQueries), "count", 1)
	set("router.stale", d(after.rt.StaleQueries, before.rt.StaleQueries), "count", 1)
	set("router.repair_waves", d(after.rt.RepairWaves, before.rt.RepairWaves), "count", 1)
	set("replica.apply_pending_max", float64(pendingMax()), "count", 1)
	set("replica.async_errors", d(after.rt.AsyncErrors, before.rt.AsyncErrors), "count", 1)
	set("replica.async_dropped", d(after.rt.AsyncDropped, before.rt.AsyncDropped), "count", 1)
	set("replica.quiesce_ms", float64(quiesce)/1e6, "ms", 1)
	set("trace.unaccounted_frac", unaccountedFrac(spans), "frac", len(spans))
	return r, nil
}

// routerMetrics derives the router.* span metrics: per routed query, the
// shards it reached, the slowest of them, and the router's own time (the
// routed call minus its slowest shard).
func (b *bench) routerMetrics(spans []span) {
	slowest := map[uint64]time.Duration{}
	fanout := map[uint64]int{}
	var rpc []time.Duration
	for _, s := range spans {
		if s.Name == "shard.query" {
			rpc = append(rpc, s.dur())
			fanout[s.Parent]++
			slowest[s.Parent] = max(slowest[s.Parent], s.dur())
		}
	}
	var slow, self []time.Duration
	shards := 0
	for _, s := range spans {
		if s.Name == "router.query" {
			slow = append(slow, slowest[s.ID])
			self = append(self, s.dur()-slowest[s.ID])
			shards += fanout[s.ID]
		}
	}
	set := b.res.set
	set("router.shards_per_query", float64(shards)/float64(max(len(slow), 1)), "count", len(slow))
	set("router.shard_rpc_p50_ms", percentile(millis(rpc), 50), "ms", len(rpc))
	set("router.slowest_shard_ms", percentile(millis(slow), 50), "ms", len(slow))
	set("router.self_ms", percentile(millis(self), 50), "ms", len(self))
}

// measureFunctions times each layer's public functions in-process,
// unloaded, on the first layerProbes probes: the FE chain split into its
// calls, then the engine (caches off, so each call does its full work)
// and the same probes over HTTP for the server's overhead.
func (b *bench) measureFunctions(sys *system) error {
	probes := b.in.probes[:min(layerProbes, len(b.in.probes))]
	eng, c := sys.eng, sys.front
	if sys.rt != nil {
		eng, c = sys.shards[0].eng, sys.shards[0].c
	}
	pca, err := trainLikeEngine(b.ds.Photos)
	if err != nil {
		return err
	}
	var det feature.DetectConfig
	sumCfg := bloom.SummaryConfig{}.WithDefaults()
	var pyr, detect, describe, summarize, kps, bits []float64
	for _, p := range probes {
		t0 := time.Now()
		py, err := imgproc.BuildPyramid(p.img, det.Pyramid)
		if err != nil {
			return err
		}
		py.Release()
		t1 := time.Now()
		if _, err := feature.DetectKeypoints(p.img, det); err != nil {
			return err
		}
		t2 := time.Now()
		k, descs, err := pca.DescribeAll(p.img, det)
		if err != nil {
			return err
		}
		t3 := time.Now()
		f, err := bloom.Summarize(descs, sumCfg)
		if err != nil {
			return err
		}
		t4 := time.Now()
		pyr = append(pyr, ms(t1.Sub(t0)))
		detect = append(detect, ms(t2.Sub(t1)-t1.Sub(t0)))
		describe = append(describe, ms(t3.Sub(t2)-t2.Sub(t1)))
		summarize = append(summarize, ms(t4.Sub(t3))*1000)
		kps = append(kps, float64(len(k)))
		bits = append(bits, float64(f.PopCount()))
	}
	set := b.res.set
	set("imgproc.pyramid_ms", median(pyr), "ms", len(pyr))
	set("feature.detect_ms", median(detect), "ms", len(detect))
	set("feature.describe_ms", median(describe), "ms", len(describe))
	set("bloom.summarize_us", median(summarize), "us", len(summarize))
	set("feature.keypoints", mean(kps), "count", len(kps))
	set("bloom.bits_set", mean(bits), "count", len(bits))

	sc, rc := eng.CacheConfig()
	eng.ConfigureCache(0, 0)
	defer eng.ConfigureCache(sc, rc)
	var sum, query, search, http []float64
	for _, p := range probes {
		t0 := time.Now()
		f, err := eng.Summarize(p.img)
		if err != nil {
			return err
		}
		sum = append(sum, ms(time.Since(t0)))
		ps := bloom.ToSparse(f)
		t0 = time.Now()
		if _, err := eng.QuerySummary(ps, topK, 1); err != nil {
			return err
		}
		search = append(search, ms(time.Since(t0))*1000)
		t0 = time.Now()
		if _, err := eng.Query(p.img, topK); err != nil {
			return err
		}
		query = append(query, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := c.Query(context.Background(), p.img, topK); err != nil {
			return err
		}
		http = append(http, ms(time.Since(t0)))
	}
	set("core.summarize_ms", median(sum), "ms", len(sum))
	set("core.query_ms", median(query), "ms", len(query))
	set("core.search_us", median(search), "us", len(search))
	set("server.overhead_ms", median(http)-median(query), "ms", len(http))
	return nil
}

// trainLikeEngine fits the PCA-SIFT basis the way core.Engine.Build does
// (the default 32-photo strided sample, default dimensions), so the FE
// timings run at the engine's dimensions.
func trainLikeEngine(photos []*simimg.Photo) (*feature.PCASIFT, error) {
	const sample = 32
	stride := max(len(photos)/sample, 1)
	var training []*simimg.Image
	for i := 0; i < len(photos) && len(training) < sample; i += stride {
		training = append(training, photos[i].Img)
	}
	return feature.TrainPCASIFT(training, feature.DetectConfig{}, 0)
}

// samplePending polls the router's per-shard apply queues every 100 ms
// while a traced replay runs; pendingMax reports the deepest seen. On a
// single node both are no-ops.
func samplePending(sys *system) (stop func(), pendingMax func() int64) {
	if sys.rt == nil {
		return func() {}, func() int64 { return 0 }
	}
	var peak int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				for _, row := range sys.rt.Stats(context.Background()).PerShard {
					peak = max(peak, row.ApplyPending)
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }, func() int64 { return peak }
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}
