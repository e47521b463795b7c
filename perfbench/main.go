// Command perfbench is tcsb's end-to-end and per-layer benchmark. One
// invocation runs one workload in a fresh process and prints one JSON
// line of metric values; run.py builds it, attaches units from
// BENCHMARK.json and checks the metric set. See README.md.
//
//	perfbench -workload campaign -seed 3 -seconds 10 -trace 0 -server bin/tcsb-server -tmp dir
//
// Workloads: campaign, timeline (in-process simulator runs) and
// serve_cold, serve_warm (a tcsb-server binary over loopback). With
// -trace 1 the same workload runs again through an instrumented mirror
// of the campaign driver and reports per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// opts are the command-line inputs shared by every workload.
type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string // tcsb-server binary (serve workloads)
	tmp      string // scratch directory for run archives
	small    bool   // self-test scale: tiny worlds, same code paths
	doctor   bool   // corrupt one expected digest, so the checks must fire
}

// report accumulates one run's metric values and its output checks.
type report struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func newReport() *report { return &report{Metrics: map[string]float64{}} }

// check counts one checked operation; a false ok counts it as failed
// and says why on stderr (the first few failures only).
func (r *report) check(ok bool, format string, args ...any) {
	r.Attempted++
	if ok {
		return
	}
	r.Failed++
	if r.Failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// set records a metric unless an earlier, more specific measurement
// already did (the traced run fills layers its main path skipped from
// a smaller probe afterwards).
func (r *report) set(name string, v float64) {
	if _, ok := r.Metrics[name]; !ok {
		r.Metrics[name] = v
	}
}

func main() {
	var o opts
	flag.StringVar(&o.workload, "workload", "", "campaign, timeline, serve_cold or serve_warm")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measurement budget; sizes the serve traces")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.server, "server", "", "tcsb-server binary")
	flag.StringVar(&o.tmp, "tmp", os.TempDir(), "scratch directory")
	flag.BoolVar(&o.small, "small", false, "self-test scale")
	flag.BoolVar(&o.doctor, "doctor", false, "corrupt one expected digest (self-test)")
	flag.Parse()
	o.trace = *trace == 1
	runtime.GOMAXPROCS(procs)
	if o.seconds < 1 {
		fail("-seconds must be positive")
	}

	var run func(opts) (*report, error)
	switch o.workload {
	case "campaign":
		run = runCampaign
	case "timeline":
		run = runTimeline
	case "serve_cold":
		run = runServeCold
	case "serve_warm":
		run = runServeWarm
	default:
		fail(fmt.Sprintf("unknown -workload %q", o.workload))
	}
	rep, err := run(o)
	if err != nil {
		fail(err.Error())
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fail(err.Error())
	}
	fmt.Println(string(out))
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	os.Exit(1)
}

// procs is the CPU count every workload computes on: the benchmark
// process and the server each run with GOMAXPROCS 1 and one campaign
// worker. On a shared host a second vCPU comes and goes; a run that
// needs only one is not slowed when it does.
const procs = 1

// simSeed maps a workload seed onto the simulator seeds whose output
// digests are pinned: the default seed 1 and the held-out seed 2.
func simSeed(seed int64) int64 { return 1 + (seed%2+2)%2 }

// usage is a process's CPU time and peak resident memory.
type usage struct {
	cpu    float64 // user + system seconds
	peakMB float64
}

func fromRusage(ru *syscall.Rusage) usage {
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return usage{cpu: sec(ru.Utime) + sec(ru.Stime), peakMB: float64(ru.Maxrss) / 1024}
}

func selfUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fail("getrusage: " + err.Error())
	}
	return fromRusage(&ru)
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-RSS count (VmHWM), so peakRSSMB measures from here on.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fail("reset peak RSS: " + err.Error())
	}
}

// peakRSSMB is the process's peak resident memory since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fail("read peak RSS: " + err.Error())
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				fail("parse VmHWM: " + err.Error())
			}
			return kb / 1024
		}
	}
	fail("no VmHWM in /proc/self/status")
	return 0
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(d time.Duration) float64 { return d.Seconds() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
