package main

// The traced run. The recorder replays the campaign driver — the stage
// sequence of core.ObserveWorld and of the core timeline loop — through
// the same public calls, timing each call into a module from here and
// counting the simulated RPCs it issued. Spans stay in memory and are
// folded into per-layer metrics at the end. The traced run must render
// the untraced run's JSONL byte for byte, which shows it measures the
// same program.

import (
	"math/rand"
	"runtime/metrics"
	"time"

	"tcsb/internal/churn"
	"tcsb/internal/core"
	"tcsb/internal/counterfactual"
	"tcsb/internal/crawler"
	"tcsb/internal/dnslink"
	"tcsb/internal/ens"
	"tcsb/internal/experiments"
	"tcsb/internal/gwprobe"
	"tcsb/internal/ids"
	"tcsb/internal/kademlia"
	"tcsb/internal/netsim"
	"tcsb/internal/provrecords"
	"tcsb/internal/scenario"
	"tcsb/internal/timeline"
)

// Span names. Each is one call (or one concurrent stage group) into a
// module, made from the benchmark's own code.
const (
	spanBuild   = "build"   // scenario.NewWorld
	spanTick    = "tick"    // World.StepTick
	spanCrawl   = "crawl"   // World.Crawl (crawler)
	spanCollect = "collect" // Collector.CollectDayParallel (provrecords → dht)
	spanProbe   = "probe"   // gwprobe census
	spanPost    = "post"    // ENS and DNSLink stages, concurrent
	spanENS     = "ens"     // ENS extraction + provider resolution (inside post)
	spanDNSLink = "dnslink" // DNSLink scan (inside post)
	spanEpoch   = "epoch"   // one timeline epoch (encloses its ticks, crawls, collects)
	spanDerive  = "derive"  // experiments.Run / RunTimeline / RunPaired
	spanRender  = "render"  // experiments.RenderJSONL
)

// runtimeStages are the spans whose heap allocation is reported. GC CPU
// is reported for whole runs only: runtime/metrics advances it at the
// end of a GC cycle, so a stage in which no cycle ends reads 0.
var runtimeStages = []string{spanBuild, spanTick, spanCrawl, spanCollect, spanProbe, spanPost, spanDerive, spanRender}

type recorder struct {
	spans   map[string][]float64 // seconds per call
	rpcs    map[string]int64     // simulated RPCs issued inside the span
	allocMB map[string]float64   // heap allocation inside the span
	cids    int64                // CIDs walked by the record collector
	net     *netsim.Network      // the world whose RPCs spans count
	sample  []metrics.Sample
	// Totals over every recorded run.
	totalAllocMB, totalGC float64
	msgCount              [4]int64 // RPCs by netsim.MsgType
	linkIssued            int64
	linkDropped           int64
}

var msgTypes = [4]netsim.MsgType{netsim.MsgFindNode, netsim.MsgGetProviders, netsim.MsgAddProvider, netsim.MsgBitswapWant}

// count adds a finished world's RPC and link-model counters.
func (r *recorder) count(w *scenario.World) {
	for i, t := range msgTypes {
		r.msgCount[i] += w.Net.MessageCount(t)
	}
	issued, dropped, _ := w.Net.LinkStats()
	r.linkIssued += issued
	r.linkDropped += dropped
}

func newRecorder() *recorder {
	return &recorder{
		spans:   map[string][]float64{},
		rpcs:    map[string]int64{},
		allocMB: map[string]float64{},
		sample: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
		},
	}
}

// runtimeNow reads cumulative heap allocation (MB) and GC CPU seconds.
func (r *recorder) runtimeNow() (allocMB, gc float64) {
	metrics.Read(r.sample)
	return float64(r.sample[0].Value.Uint64()) / (1 << 20), r.sample[1].Value.Float64()
}

func (r *recorder) msgs() int64 {
	if r.net == nil {
		return 0
	}
	return r.net.TotalMessages()
}

// span times one serial call into a module, with the RPCs and heap
// allocation it caused.
func (r *recorder) span(name string, f func()) {
	a0, _ := r.runtimeNow()
	m0 := r.msgs()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	a1, _ := r.runtimeNow()
	r.spans[name] = append(r.spans[name], seconds(d))
	r.rpcs[name] += r.msgs() - m0
	r.allocMB[name] += a1 - a0
}

// timed times a call that runs concurrently with another; its RPCs and
// runtime costs are counted by the enclosing span.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return seconds(time.Since(t0))
}

// tracedRun is the outcome of one instrumented run.
type tracedRun struct {
	body  []byte
	rpcs  int64
	world *scenario.World // the (last) world built; nil for paired runs
	// wall is the run's wall time, comparable to the untraced timed
	// phase: world build excluded for plain campaigns, whose untraced
	// set-up builds the world, included for timelines.
	wall float64
}

// run executes a resolved request through the instrumented mirror of
// its mode.
func (r *recorder) run(res *experiments.Resolved) (tracedRun, error) {
	a0, g0 := r.runtimeNow()
	t0 := time.Now()
	var out tracedRun
	var results []experiments.Result
	var err error
	switch res.Mode {
	case experiments.ModeRun:
		obs := r.observe(res)
		out.world = obs.World
		r.span(spanDerive, func() { results, err = experiments.Run(obs, res.Req.Only, res.Parallel) })
	case experiments.ModeTimeline:
		tr := r.timeline(res)
		out.world = tr.World
		r.span(spanDerive, func() { results, err = experiments.RunTimeline(tr, res.Req.Only, res.Parallel) })
	default:
		// Paired what-if runs go through the public call whole: they
		// count toward execute time but add no stage spans.
		baseline, whatif := counterfactual.Observe(res.Cfg, res.RC, res.Interventions)
		out.rpcs = baseline.World.Net.TotalMessages() + whatif.World.Net.TotalMessages()
		r.count(baseline.World)
		r.count(whatif.World)
		results, err = experiments.RunPaired(baseline, whatif,
			counterfactual.NamesOf(res.Interventions), res.Req.Only, res.Parallel)
	}
	if err != nil {
		return out, err
	}
	r.net = nil
	r.span(spanRender, func() { out.body, err = renderJSONL(results) })
	out.wall = seconds(time.Since(t0))
	if out.world != nil {
		out.rpcs = out.world.Net.TotalMessages()
		r.count(out.world)
		if res.Mode == experiments.ModeRun {
			out.wall -= r.spans[spanBuild][len(r.spans[spanBuild])-1]
		}
	}
	a1, g1 := r.runtimeNow()
	r.totalAllocMB += a1 - a0
	r.totalGC += g1 - g0
	return out, err
}

// build constructs a world under the build span and points the RPC
// counters at its network.
func (r *recorder) build(res *experiments.Resolved) *scenario.World {
	var w *scenario.World
	r.net = nil
	r.span(spanBuild, func() { w = scenario.NewWorld(res.Cfg) })
	if res.RC.Workers > 0 {
		w.Workers = res.RC.Workers
	}
	r.net = w.Net
	return w
}

// days drives a world through simulated days exactly as the campaign
// driver does: ticks with crawls spread across the day, then the day's
// sampled Bitswap CIDs collected into provider records.
type days struct {
	r         *recorder
	w         *scenario.World
	rc        core.RunConfig
	rng       *rand.Rand
	collector *provrecords.Collector
	crawls    *crawler.Series
	records   *provrecords.Collection
	crawlID   int
	day       int
}

func (r *recorder) newDays(w *scenario.World, rc core.RunConfig, crawls *crawler.Series, records *provrecords.Collection) *days {
	return &days{
		r: r, w: w, rc: rc, crawls: crawls, records: records,
		rng: rand.New(rand.NewSource(w.Cfg.Seed ^ 0x0b5e7)),
		collector: provrecords.NewCollector(w.Net,
			ids.PeerIDFromSeed(uint64(w.Cfg.Seed)<<48+0xc0113),
			func(target ids.Key) []netsim.PeerInfo { return w.SeedsNear(target, 8) }),
	}
}

// next runs one day and returns how many CIDs it collected.
func (d *days) next() int {
	w, rc := d.w, d.rc
	interval := scenario.TicksPerDay / max(rc.CrawlsPerDay, 1)
	for t := 0; t < scenario.TicksPerDay; t++ {
		d.r.span(spanTick, w.StepTick)
		if rc.CrawlsPerDay > 0 && t%interval == interval-1 && d.crawlID < (d.day+1)*rc.CrawlsPerDay {
			d.crawlID++
			var snap *crawler.Snapshot
			d.r.span(spanCrawl, func() { snap = w.Crawl(d.crawlID) })
			d.crawls.Add(snap)
		}
	}
	sample := w.Monitor.SampleDay(int64(d.day), rc.DailyCIDSample, d.rng)
	d.r.span(spanCollect, func() { d.collector.CollectDayParallel(d.records, sample, int64(d.day), w.Workers) })
	d.r.cids += int64(len(sample))
	d.day++
	return len(sample)
}

// observe mirrors core.ObserveWorld on a freshly built world.
func (r *recorder) observe(res *experiments.Resolved) *core.Observatory {
	rc := res.RC
	w := r.build(res)
	o := &core.Observatory{World: w, Run: rc}
	w.PopulateDNSLink(rc.DNSLinkDomains)
	resolvers := w.PopulateENS(rc.ENSNames)
	d := r.newDays(w, rc, &o.Crawls, &o.Records)
	for day := 0; day < rc.Days; day++ {
		d.next()
	}

	r.span(spanProbe, func() {
		prober := gwprobe.New(w.Monitor, uint64(w.Cfg.Seed)<<32+0x9a7e, w.Net.Online)
		prober.Instrument(w.Net, w.Timing)
		o.Census = prober.Census(w.PublicGateways(), rc.GatewayProbeRounds)
		o.GatewaySet = gwprobe.GatewayPeerSet(o.Census)
	})

	ensStage := func() {
		o.ENSRecords = ens.Extract(resolvers)
		seen := map[ids.CID]bool{}
		var cids []ids.CID
		for _, rec := range o.ENSRecords {
			if !seen[rec.CID] {
				seen[rec.CID] = true
				cids = append(cids, rec.CID)
			}
		}
		d.collector.CollectDayParallel(&o.ENSProviders, cids, int64(rc.Days), max(w.Workers-1, 1))
	}
	dnsStage := func() { o.DNSLinkResults = dnslink.NewScanner(w.DNS, w.GatewayDomains()).Scan() }
	var ensS, dnsS float64
	r.span(spanPost, func() {
		if w.Workers > 1 {
			done := make(chan struct{})
			go func() {
				defer close(done)
				ensS = timed(ensStage)
			}()
			dnsS = timed(dnsStage)
			<-done
		} else {
			ensS = timed(ensStage)
			dnsS = timed(dnsStage)
		}
	})
	r.spans[spanENS] = append(r.spans[spanENS], ensS)
	r.spans[spanDNSLink] = append(r.spans[spanDNSLink], dnsS)
	return o
}

// timeline mirrors core.RunTimeline: epochs of days with the
// schedule's actions applied at each epoch start and a boundary
// snapshot folded into an epoch row at each end.
func (r *recorder) timeline(res *experiments.Resolved) *core.TimelineResult {
	sch := res.Schedule
	s := sch.Schedule()
	w := r.build(res)
	tr := &core.TimelineResult{Spec: sch.Spec(), Schedule: s, World: w}
	d := r.newDays(w, res.RC, &tr.Crawls, &tr.Records)
	prev := w.Snapshot()
	for e := 0; e < s.Epochs; e++ {
		r.span(spanEpoch, func() {
			fired := sch.LabelsAt(e)
			for _, act := range sch.ActionsAt(e) {
				act.Apply(w)
			}
			crawlLo := len(tr.Crawls.Snapshots)
			collected := 0
			for i := 0; i < s.DaysPerEpoch; i++ {
				collected += d.next()
			}
			snap := w.Snapshot()
			tr.Epochs = append(tr.Epochs, epochStats(e, s.DaysPerEpoch, fired, w, snap, prev, &tr.Crawls, crawlLo, collected))
			prev = snap
		})
	}
	tr.Final = timeline.Checkpoint{Spec: sch.Spec(), Seed: res.Cfg.Seed, EpochsDone: s.Epochs, State: prev}
	return tr
}

// epochStats folds one finished epoch into its row, as the core
// timeline loop does: population at the end boundary, activity as
// deltas between the two boundary snapshots, crawl aggregates.
func epochStats(epoch, days int, fired []string, w *scenario.World,
	snap, prev scenario.Snapshot, series *crawler.Series, crawlLo, collected int) core.EpochStats {

	es := core.EpochStats{
		Epoch: epoch, Days: days, Fired: fired,
		Online: snap.Online, Servers: snap.Servers, Clients: snap.Clients, PinnedOffline: snap.PinnedOffline,
		CatalogSize: snap.CatalogSize, LiveCIDs: snap.LiveCIDs, RecordsStored: snap.RecordsStored,
		HydraEvents:    int64(snap.HydraEvents - prev.HydraEvents),
		HydraDownload:  snap.HydraDownload - prev.HydraDownload,
		HydraAdvertise: snap.HydraAdvert - prev.HydraAdvert,
		MonitorEvents:  int64(snap.MonitorEvents - prev.MonitorEvents),
		RPCs:           snap.TotalRPCs - prev.TotalRPCs,
		CollectedCIDs:  collected,
		Digest:         snap.Digest,
	}
	for _, id := range w.ServerIDs() {
		if a := w.Actors[id]; a != nil && a.Online {
			if a.Cloud {
				es.OnlineCloud++
			} else {
				es.OnlineNonCloud++
			}
		}
	}
	for _, id := range w.ClientIDs() {
		if a := w.Actors[id]; a != nil && a.Online {
			es.OnlineNonCloud++
		}
	}
	snaps := series.Snapshots[crawlLo:]
	es.Crawls = len(snaps)
	if len(snaps) == 0 {
		return es
	}
	var disc, crawlable int
	for _, sn := range snaps {
		disc += sn.Discovered()
		crawlable += sn.Crawlable()
	}
	es.MeanDiscovered = float64(disc) / float64(len(snaps))
	es.MeanCrawlable = float64(crawlable) / float64(len(snaps))
	peers := churn.AnalyzeWindow(series, crawlLo, len(series.Snapshots))
	es.CrawlPeers = len(peers)
	if len(peers) > 0 {
		var up float64
		for _, p := range peers {
			up += p.Uptime()
		}
		es.MeanUptime = up / float64(len(peers))
	}
	return es
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// perRPC is wall nanoseconds per simulated RPC (0 when none ran).
func perRPC(s float64, rpcs int64) float64 {
	if rpcs == 0 {
		return 0
	}
	return s * 1e9 / float64(rpcs)
}

// emit folds the recorded spans into per-layer metrics. Layers with no
// spans are left unset for a later probe to fill.
func (r *recorder) emit(rep *report) {
	has := func(name string) bool { return len(r.spans[name]) > 0 }
	if has(spanBuild) {
		rep.set("scenario.build_s", median(r.spans[spanBuild]))
	}
	if has(spanTick) {
		tick := sum(r.spans[spanTick])
		rep.set("scenario.tick_s", tick)
		rep.set("scenario.tick_ms_p50", 1e3*quantile(r.spans[spanTick], 0.5))
		rep.set("scenario.tick_ms_p90", 1e3*quantile(r.spans[spanTick], 0.9))
		rep.set("scenario.tick_rpcs", float64(r.rpcs[spanTick]))
		rep.set("scenario.tick_ns_per_rpc", perRPC(tick, r.rpcs[spanTick]))
	}
	if has(spanCrawl) {
		crawl := sum(r.spans[spanCrawl])
		rep.set("crawler.crawl_s", crawl)
		rep.set("crawler.crawl_ms_p50", 1e3*median(r.spans[spanCrawl]))
		rep.set("crawler.rpcs", float64(r.rpcs[spanCrawl]))
		rep.set("crawler.ns_per_rpc", perRPC(crawl, r.rpcs[spanCrawl]))
	}
	if has(spanCollect) {
		collect := sum(r.spans[spanCollect])
		rep.set("provrecords.collect_s", collect)
		rep.set("provrecords.rpcs", float64(r.rpcs[spanCollect]))
		rep.set("provrecords.ns_per_rpc", perRPC(collect, r.rpcs[spanCollect]))
		if r.cids > 0 {
			rep.set("dht.walk_us", collect*1e6/float64(r.cids))
			rep.set("dht.walk_rpcs", float64(r.rpcs[spanCollect])/float64(r.cids))
		}
	}
	if has(spanProbe) {
		rep.set("gwprobe.census_s", sum(r.spans[spanProbe]))
		rep.set("ens.stage_s", sum(r.spans[spanENS]))
		rep.set("dnslink.scan_s", sum(r.spans[spanDNSLink]))
	}
	if has(spanEpoch) {
		rep.set("core.epoch_s_p50", median(r.spans[spanEpoch]))
		rep.set("core.epoch_s_max", quantile(r.spans[spanEpoch], 1))
	}
	if has(spanDerive) {
		rep.set("experiments.derive_s", sum(r.spans[spanDerive]))
		rep.set("experiments.render_ms", 1e3*sum(r.spans[spanRender]))
	}
	for _, st := range runtimeStages {
		if has(st) {
			rep.set("runtime.alloc_mb."+st, r.allocMB[st])
		}
	}
	if r.totalAllocMB > 0 {
		rep.set("runtime.alloc_mb", r.totalAllocMB)
		rep.set("runtime.gc_cpu_s", r.totalGC)
	}
}

// netsim reports the RPC counts by type and the link-model draws,
// summed over the recorded runs.
func (r *recorder) netsim(rep *report) {
	for i, name := range []string{"netsim.find_node", "netsim.get_providers", "netsim.add_provider", "netsim.bitswap_want"} {
		rep.set(name, float64(r.msgCount[i]))
	}
	rep.set("netsim.link_issued", float64(r.linkIssued))
	rep.set("netsim.link_dropped", float64(r.linkDropped))
}

// kademlia times Table.AppendNearest(n=20) over every server's routing
// table with seeded targets, and reports the mean table size.
func (r *recorder) kademlia(rep *report, w *scenario.World, seed int64) {
	if w == nil {
		return
	}
	var tables []*kademlia.Table
	var size int
	for _, id := range w.ServerIDs() {
		if a := w.Actors[id]; a != nil && a.Node != nil {
			t := a.Node.RoutingTable()
			tables = append(tables, t)
			size += t.Len()
		}
	}
	if len(tables) == 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	targets := make([]ids.Key, 64)
	for i := range targets {
		targets[i] = ids.KeyFromUint64(rng.Uint64())
	}
	dst := make([]ids.PeerID, 0, 20)
	const reps = 4
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, t := range tables {
			for _, k := range targets {
				dst = t.AppendNearest(dst[:0], k, 20)
			}
		}
	}
	calls := reps * len(tables) * len(targets)
	rep.set("kademlia.nearest_ns", float64(time.Since(t0).Nanoseconds())/float64(calls))
	rep.set("kademlia.table_len_mean", float64(size)/float64(len(tables)))
}
