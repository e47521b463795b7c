package main

// The serving workloads: a built tcsb-server on loopback with one run
// slot and one campaign worker, driven closed-loop by clients on their
// own keep-alive connections. serve_cold sends distinct small-world
// requests from two clients, so every one misses the run cache (some
// are sent by both clients at once, so single-flight coalescing runs);
// serve_warm repeats primed keys from one client, so every request
// hits.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tcsb/internal/core"
	"tcsb/internal/experiments"
	"tcsb/internal/runcache"
	"tcsb/internal/scenario"
)

// server is one running tcsb-server process.
type server struct {
	cmd  *exec.Cmd
	base string
	boot float64 // seconds from exec to a healthy /v1/healthz
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs the server on a free loopback port and waits until
// /v1/healthz answers.
func startServer(o opts, archive string) (*server, error) {
	if o.server == "" {
		return nil, errors.New("serve workloads need -server")
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{base: "http://" + addr}
	s.cmd = exec.Command(o.server, "-addr", addr, "-fleet", "1",
		"-workers", strconv.Itoa(procs), "-archive-dir", archive)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	s.cmd.Stdout, s.cmd.Stderr = io.Discard, io.Discard
	client := &http.Client{Timeout: time.Second}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	for time.Since(t0) < 30*time.Second {
		resp, err := client.Get(s.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.boot = seconds(time.Since(t0))
				client.CloseIdleConnections()
				return s, nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	s.stop()
	return nil, errors.New("server did not become healthy within 30s")
}

// stop shuts the server down gracefully and returns its resource usage.
func (s *server) stop() (usage, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.cmd.Process.Kill()
	}
	err := s.cmd.Wait()
	ru, _ := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return usage{}, fmt.Errorf("server exited without rusage: %v", err)
	}
	return fromRusage(ru), err
}

// bootReps is how many times a serve run boots its server; boots are
// cheap, so more of them steady the median.
const bootReps = 7

// bootServers starts the server bootReps times and keeps the last one
// running; the others are stopped. It returns every boot time.
func bootServers(o opts, archive string) (*server, []float64, error) {
	var boots []float64
	var s *server
	for i := 0; i < bootReps; i++ {
		if s != nil {
			if _, err := s.stop(); err != nil {
				return nil, nil, err
			}
		}
		var err error
		if s, err = startServer(o, archive); err != nil {
			return nil, nil, err
		}
		boots = append(boots, s.boot)
	}
	return s, boots, nil
}

func (s *server) cacheStats() (runcache.Stats, error) {
	var st runcache.Stats
	resp, err := http.Get(s.base + "/v1/cache")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// key is one distinct run request of a serve trace.
type key struct {
	req  core.RunRequest
	body []byte // JSON request body
}

// smallKeys draws n distinct small-world requests from seed: of every
// five, three plain campaigns, one two-epoch timeline (the second) and
// one paired what-if (the fourth, alternating its intervention).
func smallKeys(seed int64, n int) []key {
	keys := make([]key, n)
	for i := range keys {
		req := core.RunRequest{Seed: seed*1000 + int64(i), Scale: 0.05, Days: 1}
		switch i % 5 {
		case 1:
			req.Timeline, req.Days = "epochs=2;days=1", 0
		case 3:
			req.WhatIf = []string{"churn-2x", "hydra-dissolution"}[i/5%2]
		}
		b, _ := json.Marshal(req) // a RunRequest always marshals
		keys[i] = key{req: req, body: b}
	}
	return keys
}

// coldWaves splits keys [0, n) into waves of `size` and each wave into
// rounds of two concurrent requests: the wave's first and last keys are
// sent by both clients at once (so single-flight coalescing runs), the
// others in pairs. Round order within a wave is shuffled.
func coldWaves(seed int64, n, size int) [][][2]int {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7))
	var waves [][][2]int
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n) - 1
		rounds := [][2]int{{lo, lo}}
		i := lo + 1
		for ; i+1 < hi; i += 2 {
			rounds = append(rounds, [2]int{i, i + 1})
		}
		for ; i <= hi; i++ {
			rounds = append(rounds, [2]int{i, i})
		}
		rng.Shuffle(len(rounds), func(a, b int) { rounds[a], rounds[b] = rounds[b], rounds[a] })
		waves = append(waves, rounds)
	}
	return waves
}

// zipfTrace draws n warm requests over nkeys keys, head-heavy.
func zipfTrace(seed int64, n, nkeys int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x21f))
	z := rand.NewZipf(rng, 1.2, 1, uint64(nkeys-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// client is one closed-loop connection.
type client struct{ http *http.Client }

// coldConns is the number of clients of a cold phase, one per request
// of a round; a warm phase uses the first client only.
const coldConns = 2

func newClients() []client {
	cs := make([]client, coldConns)
	for i := range cs {
		cs[i] = client{&http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   120 * time.Second,
		}}
	}
	return cs
}

func closeClients(cs []client) {
	for _, c := range cs {
		c.http.CloseIdleConnections()
	}
}

// warmUp opens each client's connection outside the timed phase.
func warmUp(s *server, cs []client) error {
	for _, c := range cs {
		resp, err := c.http.Get(s.base + "/v1/healthz")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return nil
}

// reply is one request's outcome.
type reply struct {
	body  []byte
	cache string // X-Tcsb-Cache
	ms    float64
	err   error
}

func (c client) post(s *server, k key) reply {
	t0 := time.Now()
	resp, err := c.http.Post(s.base+"/v1/runs", "application/json", bytes.NewReader(k.body))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	r := reply{body: body, cache: resp.Header.Get("X-Tcsb-Cache"), ms: ms(time.Since(t0)), err: err}
	if err == nil && resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return r
}

// coldResult is a cold phase's outcome per key: the response bytes
// and the latency of the request that computed them; and the wall time
// of each wave.
type coldResult struct {
	bodies [][]byte
	missMS []float64
	walls  []float64
}

// runCold sends the waves round by round, each round's two requests at
// once, and checks every reply: 2xx, and both replies of a coalesced
// round equal.
func runCold(rep *report, s *server, cs []client, keys []key, waves [][][2]int) coldResult {
	res := coldResult{bodies: make([][]byte, len(keys)), missMS: make([]float64, len(keys))}
	for _, rounds := range waves {
		t0 := time.Now()
		runRounds(rep, s, cs, keys, rounds, &res)
		res.walls = append(res.walls, seconds(time.Since(t0)))
	}
	return res
}

func runRounds(rep *report, s *server, cs []client, keys []key, rounds [][2]int, res *coldResult) {
	for _, rd := range rounds {
		var replies [2]reply
		var wg sync.WaitGroup
		for j := 0; j < 2; j++ {
			j := j
			wg.Add(1)
			go func() {
				defer wg.Done()
				replies[j] = cs[j%len(cs)].post(s, keys[rd[j]])
			}()
		}
		wg.Wait()
		if rd[1] == rd[0] {
			// One reply computed the run, the other joined its flight.
			r0, r1 := replies[0], replies[1]
			rep.check(r0.err == nil && r1.err == nil && (r0.cache == "miss") != (r1.cache == "miss") &&
				len(r0.body) > 0 && bytes.Equal(r0.body, r1.body),
				"coalesced key %d: caches %q/%q, errs %v/%v, bytes equal %v",
				rd[0], r0.cache, r1.cache, r0.err, r1.err, bytes.Equal(r0.body, r1.body))
			res.bodies[rd[0]], res.missMS[rd[0]] = r0.body, max(r0.ms, r1.ms)
			continue
		}
		for j, r := range replies {
			rep.check(r.err == nil && r.cache == "miss" && len(r.body) > 0,
				"cold key %d: cache %q, %d bytes, err %v", rd[j], r.cache, len(r.body), r.err)
			res.bodies[rd[j]], res.missMS[rd[j]] = r.body, r.ms
		}
	}
}

// warmResult is a warm phase's outcome: every request's latency and
// the wall time of each batch.
type warmResult struct {
	hitMS []float64
	walls []float64
}

// warmBatches is how many equal batches a warm trace runs in.
const warmBatches = 10

// runWarm sends the trace closed-loop on every client, in warmBatches
// batches with a barrier between them, and checks each reply is a hit
// with exactly the key's cold bytes.
func runWarm(rep *report, s *server, cs []client, keys []key, want [][]byte, trace []int) warmResult {
	res := warmResult{hitMS: make([]float64, len(trace))}
	bad := make([]string, len(trace))
	size := (len(trace) + warmBatches - 1) / warmBatches
	for lo := 0; lo < len(trace); lo += size {
		t0 := time.Now()
		warmBatch(s, cs, keys, want, trace, lo, min(lo+size, len(trace)), &res, bad)
		res.walls = append(res.walls, seconds(time.Since(t0)))
	}
	for _, b := range bad {
		rep.check(b == "", "%s", b)
	}
	return res
}

func warmBatch(s *server, cs []client, keys []key, want [][]byte, trace []int, lo, hi int, res *warmResult, bad []string) {
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for _, c := range cs {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < hi; i = int(next.Add(1) - 1) {
				k := trace[i]
				r := c.post(s, keys[k])
				res.hitMS[i] = r.ms
				if r.err != nil || r.cache != "hit" || !bytes.Equal(r.body, want[k]) {
					bad[i] = fmt.Sprintf("warm request %d (key %d): cache %q, err %v, bytes equal %v",
						i, k, r.cache, r.err, bytes.Equal(r.body, want[k]))
				}
			}
		}()
	}
	wg.Wait()
}

// phaseWall is a phase's wall time estimated from its equal parts: the
// part count times the median part, so a transient stall on a shared
// host moves it less than the plain sum.
func phaseWall(walls []float64) float64 {
	return float64(len(walls)) * median(walls)
}

// doctored returns bodies with the first one's last byte flipped when
// the self-test asks for a corrupted reference, so the byte checks must
// fire; otherwise bodies unchanged.
func doctored(o opts, bodies [][]byte) [][]byte {
	if !o.doctor || len(bodies) == 0 || len(bodies[0]) == 0 {
		return bodies
	}
	out := append([][]byte(nil), bodies...)
	out[0] = append([]byte(nil), bodies[0]...)
	out[0][len(out[0])-1] ^= 1
	return out
}

func archiveDir(o opts, name string) (string, error) {
	return os.MkdirTemp(o.tmp, "perfbench-"+name+"-")
}

// sizes returns a run's cold key count and wave size, its primed key
// count and its warm request count.
func sizes(o opts) (coldKeys, waveSize, primeKeys, warmReqs int) {
	if o.small {
		return 4, 4, 3, 200
	}
	return 5 * o.seconds, 10, 10, 3000 * o.seconds
}

func runServeCold(o opts) (*report, error) {
	rep := newReport()
	dir, err := archiveDir(o, "cold")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	n, wave, _, h := sizes(o)
	keys := smallKeys(o.seed, n)
	s, boots, err := bootServers(o, dir)
	if err != nil {
		return nil, err
	}
	cs := newClients()
	defer closeClients(cs)
	if err := warmUp(s, cs); err != nil {
		s.stop()
		return nil, err
	}
	cold := runCold(rep, s, cs, keys, coldWaves(o.seed, n, wave))
	cold.bodies = doctored(o, cold.bodies)
	stats, err := s.cacheStats()
	if err != nil {
		s.stop()
		return nil, err
	}
	rep.check(stats.Misses == uint64(n), "runcache misses %d, distinct keys %d", stats.Misses, n)
	sess := session{keys: keys, cold: cold, stats: stats}
	if o.trace {
		sess.warm = runWarm(rep, s, cs[:1], keys, cold.bodies, zipfTrace(o.seed, h/10, n))
		if sess.stats, err = s.cacheStats(); err != nil {
			s.stop()
			return nil, err
		}
	}
	u, err := s.stop()
	if err != nil {
		return nil, err
	}
	if !o.trace {
		// The traced run checks the served bytes in traceSession.
		if err := verifyServed(rep, keys, cold.bodies); err != nil {
			return nil, err
		}
		serveMetrics(rep, boots, cold.walls, u)
		return rep, nil
	}
	serveLayers(rep, boots, cold.walls)
	return rep, traceSession(o, rep, sess)
}

func runServeWarm(o opts) (*report, error) {
	rep := newReport()
	dir, err := archiveDir(o, "warm")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	_, _, p, h := sizes(o)
	keys := smallKeys(o.seed, p)

	// Prime the archive on a first server; its computations are not
	// part of the measurement.
	ps, err := startServer(o, dir)
	if err != nil {
		return nil, err
	}
	cs := newClients()
	defer closeClients(cs)
	cold := runCold(rep, ps, cs, keys, coldWaves(o.seed, p, p))
	cold.bodies = doctored(o, cold.bodies)
	primeStats, err := ps.cacheStats()
	if _, serr := ps.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	closeClients(cs)
	if !o.trace {
		// The traced run checks the served bytes in traceSession.
		if err := verifyServed(rep, keys, cold.bodies); err != nil {
			return nil, err
		}
	}

	// Set-up boots from the archive, which primes the run cache.
	s, boots, err := bootServers(o, dir)
	if err != nil {
		return nil, err
	}
	if err := warmUp(s, cs); err != nil {
		s.stop()
		return nil, err
	}
	warm := runWarm(rep, s, cs[:1], keys, cold.bodies, zipfTrace(o.seed, h, p))
	stats, err := s.cacheStats()
	if err != nil {
		s.stop()
		return nil, err
	}
	rep.check(stats.Primed == uint64(p) && stats.Misses == 0 && stats.Hits == uint64(h),
		"warm server cache: primed %d of %d keys, %d misses, %d hits of %d", stats.Primed, p, stats.Misses, stats.Hits, h)
	u, err := s.stop()
	if err != nil {
		return nil, err
	}
	if !o.trace {
		serveMetrics(rep, boots, warm.walls, u)
		return rep, nil
	}
	serveLayers(rep, boots, warm.walls)
	stats.Misses += primeStats.Misses
	stats.Coalesced += primeStats.Coalesced
	return rep, traceSession(o, rep, session{keys: keys, cold: cold, warm: warm, stats: stats})
}

// serveMetrics reports a serve run's end-to-end metrics: set-up is the
// median boot, the run the phase wall of its parts; CPU and peak RSS
// are the server process's.
func serveMetrics(rep *report, boots, parts []float64, u usage) {
	rep.Metrics["setup_s"] = median(boots)
	rep.Metrics["run_s"] = phaseWall(parts)
	rep.Metrics["cpu_s"] = u.cpu
	rep.Metrics["peak_rss_mb"] = u.peakMB
}

// serveLayers reports the sample counts and slowest samples behind
// serveMetrics.
func serveLayers(rep *report, boots, parts []float64) {
	rep.set("run.reps", float64(len(parts)))
	rep.set("run.max_s", quantile(parts, 1))
	rep.set("setup.reps", float64(len(boots)))
	rep.set("setup.max_s", quantile(boots, 1))
}

// verifyServed executes every key in-process, outside the timed phase,
// and checks the served bytes against it.
func verifyServed(rep *report, keys []key, served [][]byte) error {
	for i, k := range keys {
		res, err := experiments.Resolve(k.req)
		if err != nil {
			return err
		}
		res.RC.Workers = procs
		body, err := res.ExecuteJSONL(nil)
		if err != nil {
			return err
		}
		rep.check(bytes.Equal(body, served[i]), "key %d: served JSONL differs from an in-process execution", i)
	}
	return nil
}

// session is a served trace: its distinct keys, the cold and warm
// phases, and the server's run-cache counters afterwards.
type session struct {
	keys  []key
	cold  coldResult
	warm  warmResult
	stats runcache.Stats
}

// traceSession reports the serving layers of a session, then executes
// each of its keys in-process with the server's per-run allotment (1
// worker per fleet slot, 2 derivations): once untraced through
// Resolved.ExecuteJSONL and once through the instrumented mirror, both
// checked against the served bytes. Miss latency minus untraced
// execution time is the time a miss spent outside its own computation.
func traceSession(o opts, rep *report, sess session) error {
	n := len(sess.keys)
	missMS := sess.cold.missMS
	rep.set("serve.miss_p50_ms", quantile(missMS, 0.5))
	rep.set("serve.miss_p90_ms", quantile(missMS, 0.9))
	rep.set("serve.misses_n", float64(n))
	hitMS := sess.warm.hitMS
	rep.set("serve.hit_p50_ms", quantile(hitMS, 0.5))
	rep.set("serve.hit_p99_ms", quantile(hitMS, 0.99))
	rep.set("serve.hits_n", float64(len(hitMS)))
	rep.set("serve.hits_per_s", float64(len(hitMS))/sum(sess.warm.walls))
	rep.set("runcache.hits", float64(sess.stats.Hits))
	rep.set("runcache.misses", float64(sess.stats.Misses))
	rep.set("runcache.coalesced", float64(sess.stats.Coalesced))
	rep.set("runcache.miss_per_key", float64(sess.stats.Misses)/float64(n))

	rec := newRecorder()
	var execMS, queue []float64
	var untraced, traced, cpu float64
	var rpcs int64
	var plain *scenario.World // the last plain campaign's world, for the kademlia probe
	for i, k := range sess.keys {
		res, err := experiments.Resolve(k.req)
		if err != nil {
			return err
		}
		res.RC.Workers, res.Parallel = 1, 2
		u0 := selfUsage()
		t0 := time.Now()
		body, err := res.ExecuteJSONL(nil)
		exec := time.Since(t0)
		cpu += selfUsage().cpu - u0.cpu
		if err != nil {
			return err
		}
		t0 = time.Now()
		run, err := rec.run(res)
		traced += seconds(time.Since(t0))
		if err != nil {
			return err
		}
		untraced += seconds(exec)
		rpcs += run.rpcs
		rep.check(bytes.Equal(body, sess.cold.bodies[i]) && bytes.Equal(run.body, body),
			"key %d: in-process JSONL (untraced, traced) differs from the served bytes", i)
		execMS = append(execMS, ms(exec))
		queue = append(queue, sess.cold.missMS[i]-ms(exec))
		if res.Mode == experiments.ModeRun {
			plain = run.world
		}
	}
	rec.kademlia(rep, plain, o.seed)
	rec.emit(rep)
	rec.netsim(rep)
	rep.set("experiments.execute_ms_p50", median(execMS))
	rep.set("serve.queue_ms", median(queue))
	rep.set("run.ns_per_rpc", cpu*1e9/float64(rpcs))
	rep.set("trace.run_s", traced)
	rep.set("trace.overhead_s", traced-untraced)
	rep.set("experiments.resolve_us", resolveMicros(sess.keys))
	rep.set("runcache.get_ns", cacheGetNanos(o.seed, sess.cold.bodies))
	return nil
}

// resolveMicros is the median microseconds of experiments.Resolve over
// the keys, repeated.
func resolveMicros(keys []key) float64 {
	var us []float64
	for rep := 0; rep < 50; rep++ {
		for _, k := range keys {
			t0 := time.Now()
			if _, err := experiments.Resolve(k.req); err != nil {
				continue
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return median(us)
}

// cacheGetNanos is the mean nanoseconds of runcache.Get over a Zipf
// trace of the served keys, on a cache holding their bytes.
func cacheGetNanos(seed int64, bodies [][]byte) float64 {
	c := runcache.New(0)
	names := make([]string, len(bodies))
	for i, b := range bodies {
		names[i] = fmt.Sprintf("%064x", i)
		c.Put(names[i], b)
	}
	trace := zipfTrace(seed, 200000, len(bodies))
	t0 := time.Now()
	for _, k := range trace {
		c.Get(names[k])
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(trace))
}

// probeLayers fills the per-layer metrics a simulator workload's own
// path does not reach — serving, the run cache, small-run execution and
// whichever campaign stages its mode skips — from a short serve session
// over three small keys (one per mode; the plain one coalesced).
func probeLayers(o opts, rep *report) error {
	dir, err := archiveDir(o, "probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	keys := probeKeys(o.seed)
	s, err := startServer(o, dir)
	if err != nil {
		return err
	}
	cs := newClients()
	defer closeClients(cs)
	if err := warmUp(s, cs); err != nil {
		s.stop()
		return err
	}
	cold := runCold(rep, s, cs, keys, [][][2]int{{{0, 0}, {1, 2}}})
	warm := runWarm(rep, s, cs[:1], keys, cold.bodies, zipfTrace(o.seed, 300, len(keys)))
	stats, err := s.cacheStats()
	if _, serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	return traceSession(o, rep, session{keys: keys, cold: cold, warm: warm, stats: stats})
}

// probeKeys is one small request of each mode.
func probeKeys(seed int64) []key {
	base := core.RunRequest{Seed: seed*1000 + 999, Scale: 0.05}
	plain, whatif, tl := base, base, base
	plain.Days, whatif.Days = 1, 1
	whatif.WhatIf = "churn-2x"
	tl.Timeline = "epochs=2;days=1"
	var keys []key
	for _, req := range []core.RunRequest{plain, tl, whatif} {
		b, _ := json.Marshal(req) // a RunRequest always marshals
		keys = append(keys, key{req: req, body: b})
	}
	return keys
}
