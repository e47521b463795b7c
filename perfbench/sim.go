package main

// The simulator workloads: repeated cold campaigns and timeline runs
// at full population, each through the same public calls as
// `tcsb-experiments -json`, checked against pinned output digests.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"tcsb/internal/core"
	"tcsb/internal/experiments"
	"tcsb/internal/scenario"
)

// pin is a run's expected output: the JSONL sha256 and the simulated
// RPC total.
type pin struct {
	digest string
	rpcs   int64
}

// pins holds the expected output per workload, scale and simulator
// seed. A change that moves simulated output must update them, with a
// line in CHANGES.md saying why.
var pins = map[string]pin{
	"campaign/default/1": {"5cb1234ad863435eae61b9e753f4ae17e220715eb0259107913f17e9ddab5d41", 1083701},
	"campaign/default/2": {"54978f8111675fb85f666a4bb4f21c65b5bf685ad4cd23ce87fafafc932b2ea6", 1071478},
	"timeline/default/1": {"9d3e7ddb2270f1448f370001caf416892b33b900923b5d6419cfbe7b90e3fe46", 1396060},
	"timeline/default/2": {"209ee4d0ac0ef5c6323abddfc791adc9504c0650048e3475c23d06c0c77ff0b5", 1392025},
	// Above: 1600 servers, a 2-day campaign and a 3-epoch timeline.
	// Self-test scale (-small): scale 0.05, one day / three epochs.
	"campaign/small/1": {"251e3047ea71b287bd8a42e6d22bb9e5e4eedfd4de70b31104b9cbf3483a682f", 40691},
	"campaign/small/2": {"bd0495ccd6122f047c51a10fcd95e9b408d60666dc50f7b3af1494aa42f0c52d", 41594},
	"timeline/small/1": {"7ebff88b9a5b62fd41ad0c05402bf33faa2371dc60eca59731c4fda9e3700488", 66356},
	"timeline/small/2": {"994c351e80bbc98637fee1bdc4e3104cd5a83ce81bb6716a3cdc8c984247b7a4", 64072},
}

func pinFor(workload string, o opts, seed int64) (pin, error) {
	scale := "default"
	if o.small {
		scale = "small"
	}
	key := fmt.Sprintf("%s/%s/%d", workload, scale, seed)
	p, ok := pins[key]
	if !ok {
		return pin{}, fmt.Errorf("no pinned output for %s", key)
	}
	if o.doctor {
		flip := "0"
		if p.digest[0] == '0' {
			flip = "1"
		}
		p.digest = flip + p.digest[1:]
	}
	return p, nil
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkOutput compares a run's JSONL and RPC total with its pin.
func checkOutput(rep *report, what string, body []byte, rpcs int64, want pin) {
	got := sha(body)
	rep.check(got == want.digest, "%s: JSONL sha256 %s, pinned %s", what, got, want.digest)
	rep.check(rpcs == want.rpcs, "%s: %d simulated RPCs, pinned %d", what, rpcs, want.rpcs)
}

// Each timed rep is one whole run at full population (1600 servers),
// shortened in simulated time so that a run holds several reps and
// reports their median: a stall on a shared host then moves one rep,
// not the figure.
const (
	campaignDays = 2
	timelineSpec = "epochs=3;days=1;@1:hydra-dissolution"
	// minReps is the fewest timed reps a run makes; it makes more
	// while its -seconds budget lasts.
	minReps = 3
)

func campaignRequest(o opts) core.RunRequest {
	req := core.RunRequest{Seed: simSeed(o.seed), Days: campaignDays, Workers: procs, Parallel: procs}
	if o.small {
		req.Scale, req.Days = 0.05, 1
	}
	return req
}

func timelineRequest(o opts) core.RunRequest {
	req := core.RunRequest{Seed: simSeed(o.seed), Timeline: timelineSpec,
		NetProfile: "net.measured", Workers: procs, Parallel: procs}
	if o.small {
		req.Scale = 0.05
	}
	return req
}

// setUp resolves req and builds its world, timing both.
func setUp(req core.RunRequest) (*experiments.Resolved, *scenario.World, float64, error) {
	runtime.GC()
	t0 := time.Now()
	res, err := experiments.Resolve(req)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("resolve: %w", err)
	}
	w := scenario.NewWorld(res.Cfg)
	return res, w, seconds(time.Since(t0)), nil
}

func renderJSONL(results []experiments.Result) ([]byte, error) {
	var buf bytes.Buffer
	err := experiments.RenderJSONL(&buf, results)
	return buf.Bytes(), err
}

// observeOnce is the timed campaign: observe the built world, derive
// the full catalog, render JSONL.
func observeOnce(res *experiments.Resolved, w *scenario.World) ([]byte, int64, error) {
	obs := core.ObserveWorld(w, res.RC)
	results, err := experiments.Run(obs, res.Req.Only, res.Parallel)
	if err != nil {
		return nil, 0, err
	}
	body, err := renderJSONL(results)
	return body, w.Net.TotalMessages(), err
}

// timelineOnce is the timed timeline: run the schedule, derive the
// timeline.* experiments, render JSONL.
func timelineOnce(res *experiments.Resolved) ([]byte, int64, error) {
	tr, err := core.RunTimeline(res.Cfg, res.RC, res.Schedule)
	if err != nil {
		return nil, 0, err
	}
	results, err := experiments.RunTimeline(tr, res.Req.Only, res.Parallel)
	if err != nil {
		return nil, 0, err
	}
	body, err := renderJSONL(results)
	return body, tr.World.Net.TotalMessages(), err
}

// timedRun runs f once and reports its wall and process CPU seconds.
func timedRun(f func() ([]byte, int64, error)) (body []byte, rpcs int64, wall, cpu float64, err error) {
	u0 := selfUsage()
	t0 := time.Now()
	body, rpcs, err = f()
	wall = seconds(time.Since(t0))
	cpu = selfUsage().cpu - u0.cpu
	return body, rpcs, wall, cpu, err
}

func runCampaign(o opts) (*report, error) {
	return runSim(o, "campaign", campaignRequest(o))
}

func runTimeline(o opts) (*report, error) {
	return runSim(o, "timeline", timelineRequest(o))
}

// simReps is a simulator run's per-rep samples.
type simReps struct {
	setup, wall, cpu, rssMB []float64
}

// runSim measures one simulator workload: reps of set-up (resolve plus
// world build) and the timed phase, until the -seconds budget is spent
// and at least minReps ran, each checked against its pin. The timeline
// builds its world again inside core.RunTimeline, so its set-up world
// only measures the build. The untraced run reports the per-rep
// medians; the traced run adds one rep through the instrumented mirror
// and reports per-layer metrics.
func runSim(o opts, workload string, req core.RunRequest) (*report, error) {
	rep := newReport()
	var reps simReps
	var res *experiments.Resolved
	var body []byte
	var rpcs int64
	end := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for len(reps.wall) < minReps || time.Now().Before(end) {
		var w *scenario.World
		var setup, wall, cpu float64
		var err error
		resetPeakRSS()
		if res, w, setup, err = setUp(req); err != nil {
			return nil, err
		}
		want, err := pinFor(workload, o, res.Req.Seed)
		if err != nil {
			return nil, err
		}
		once := func() ([]byte, int64, error) { return observeOnce(res, w) }
		if workload == "timeline" {
			// The timed phase builds its own world; drop the set-up one
			// and count peak memory from here.
			w = nil
			resetPeakRSS()
			once = func() ([]byte, int64, error) { return timelineOnce(res) }
		}
		if body, rpcs, wall, cpu, err = timedRun(once); err != nil {
			return nil, err
		}
		checkOutput(rep, workload, body, rpcs, want)
		reps.setup = append(reps.setup, setup)
		reps.wall = append(reps.wall, wall)
		reps.cpu = append(reps.cpu, cpu)
		reps.rssMB = append(reps.rssMB, peakRSSMB())
	}
	if !o.trace {
		rep.Metrics["setup_s"] = median(reps.setup)
		rep.Metrics["run_s"] = median(reps.wall)
		rep.Metrics["cpu_s"] = median(reps.cpu)
		rep.Metrics["peak_rss_mb"] = median(reps.rssMB)
		return rep, nil
	}

	runtime.GC()
	rec := newRecorder()
	traced, err := rec.run(res)
	if err != nil {
		return nil, err
	}
	rep.check(sha(traced.body) == sha(body), "%s: traced JSONL differs from untraced", workload)
	rec.emit(rep)
	rec.kademlia(rep, traced.world, res.Req.Seed)
	rec.netsim(rep)
	rep.set("run.reps", float64(len(reps.wall)))
	rep.set("run.max_s", quantile(reps.wall, 1))
	rep.set("setup.reps", float64(len(reps.setup)))
	rep.set("setup.max_s", quantile(reps.setup, 1))
	rep.set("run.ns_per_rpc", median(reps.cpu)*1e9/float64(rpcs))
	rep.set("trace.run_s", traced.wall)
	rep.set("trace.overhead_s", traced.wall-median(reps.wall))
	return rep, probeLayers(o, rep)
}
