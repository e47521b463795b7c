#!/usr/bin/env python3
"""Build tcsb and its benchmark from source, run one workload, print the result.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Each invocation builds (incrementally) the benchmark program and the
tcsb-server binary into .bench_build/, runs the workload in a fresh
process and prints, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a missing or unexpected metric is an
error. Every file the build or the run writes stays under .bench_build/.

--selftest runs every workload at a tiny scale, traced and untraced,
checks that every named metric is emitted and that the output checks
fire on a doctored digest.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
TMP = os.path.join(BUILD, "tmp")
# A run must end within 180 s; leave room for the build check and output.
DEADLINE_S = 170


class BenchError(Exception):
    pass


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=TMP,
        TMPDIR=TMP,
        HOME=os.path.join(BUILD, "home"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    return env


def run_group(argv, cwd, timeout, capture):
    """Run argv in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, cwd=cwd, env=go_env(), start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[0]} timed out after {timeout:.0f}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray children, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited with {proc.returncode}")
    return out


def build(deadline):
    for need in ("go.mod", os.path.join("cmd", "tcsb-server")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"tcsb source not found ({need} missing under {ROOT})")
    for d in (BIN, TMP, os.path.join(BUILD, "home")):
        os.makedirs(d, exist_ok=True)
    run_group(["go", "build", "-o", os.path.join(BIN, "tcsb-server"), "./cmd/tcsb-server"],
              ROOT, deadline - time.monotonic(), capture=False)
    run_group(["go", "build", "-o", os.path.join(BIN, "perfbench"), "."],
              HERE, deadline - time.monotonic(), capture=False)


def run_workload(workload, seed, seconds, trace, deadline, extra=()):
    argv = [os.path.join(BIN, "perfbench"), "-workload", workload, "-seed", str(seed),
            "-seconds", str(seconds), "-trace", str(trace),
            "-server", os.path.join(BIN, "tcsb-server"), "-tmp", TMP, *extra]
    out = run_group(argv, ROOT, deadline - time.monotonic(), capture=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise BenchError(f"{workload}: no result line")
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result(spec, raw, trace):
    """Attach units and check the metric set against BENCHMARK.json."""
    listed = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in listed}
    got = set(raw["metrics"])
    if got != names:
        raise BenchError(f"metric set mismatch: missing {sorted(names - got)}, unexpected {sorted(got - names)}")
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": raw["metrics"][m["name"]], "unit": m["unit"]} for m in listed},
    }


def selftest(spec, deadline):
    """Tiny-scale smoke of every workload, traced and untraced, plus doctored digests."""
    failures = []
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            try:
                res = result(spec, run_workload(w, 1, 1, trace, deadline, ["-small"]), trace)
                if not res["correct"]:
                    failures.append(f"{w} trace={trace}: {res['failed']} of {res['attempted']} checks failed")
            except BenchError as e:
                failures.append(f"{w} trace={trace}: {e}")
        raw = run_workload(w, 1, 1, 0, deadline, ["-small", "-doctor"])
        if raw["failed"] == 0:
            failures.append(f"{w}: doctored digest went unnoticed")
    for f in failures:
        print("selftest:", f, file=sys.stderr)
    print(json.dumps({"selftest": "fail" if failures else "ok", "failures": len(failures)}))
    return 1 if failures else 0


def main():
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    try:
        spec = load_spec()
        if args.selftest:
            build(start + 900)
            return selftest(spec, start + 900)
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        # The first run in a checkout compiles everything; later ones
        # relink from the cache within a second or two.
        build(start + 880)
        deadline = time.monotonic() + DEADLINE_S
        raw = run_workload(args.workload, args.seed, args.seconds, args.trace, deadline)
        print(json.dumps(result(spec, raw, args.trace)))
        return 0
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
