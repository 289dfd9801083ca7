#!/usr/bin/env python3
"""Repository benchmark for the failstutter simulator.

Run from the repository root:

    python3 perfbench/run.py --workload fleet --seed 42 --seconds 25 --trace 0

It builds the Go harness in this directory (a module of its own that
imports the simulator from the parent directory), runs the workload one
op per process, measures each process's set-up time from outside, checks
every op's result, and prints one JSON result object as the last line of
standard output. With --trace 1 it makes the layer run instead. See
README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fleet", "fleet-telemetry", "planes", "suite-quick")
READY = "perfbench: ready"
# Processes that only set up and exit, half before and half after the
# ops; with the op processes they give the set-up samples whose median is
# setup_s.
SETUP_PROBES = 40
BUILD_TIMEOUT_S = 800  # a first build compiles the standard library
RUN_TIMEOUT_S = 170  # measuring, after the build


def go_env(build):
    """Keeps every file the Go tool writes inside the build directory."""
    env = dict(os.environ)
    env.update(
        GOCACHE=str(build / "gocache"),
        GOPATH=str(build / "gopath"),
        GOMODCACHE=str(build / "gopath" / "pkg" / "mod"),
        HOME=str(build / "home"),
        XDG_CONFIG_HOME=str(build / "home" / ".config"),
        GOENV="off",
        GOFLAGS="-buildvcs=false",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
    )
    return env


def build_harness():
    """Builds the harness binary and returns its path."""
    root = Path.cwd()
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    binary = build / "perfbench"
    subprocess.run(
        ["go", "build", "-o", str(binary), "."],
        cwd=HERE, env=go_env(build), check=True, timeout=BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    return binary


def tagged(lines, tag):
    """The JSON value of the last line that starts with tag, or None."""
    value = None
    for line in lines:
        if line.startswith(tag + " "):
            value = json.loads(line[len(tag) + 1:])
    return value


def run_once(argv, deadline):
    """Runs one harness process to the end.

    Returns the seconds from starting it to its ready line (None without
    one), its exit code and its remaining output lines. A watchdog kills
    the process at the deadline; the process is always waited for.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.1), proc.kill)
    watchdog.start()
    try:
        setup = None
        if proc.stdout.readline().rstrip("\n") == READY:
            setup = time.perf_counter() - started
        lines = proc.stdout.read().splitlines()
    finally:
        proc.wait()
        watchdog.cancel()
    code = proc.returncode
    if setup is None and code == 0:
        code = 1
    return setup, code, lines


def probe_setup(base, n, deadline):
    """Set-up times of n processes that exit once set up."""
    times = []
    for _ in range(n):
        setup, code, _ = run_once(base + ["-probe"], deadline)
        if code != 0:
            sys.exit(f"perfbench: set-up probe exited with {code}")
        times.append(setup)
    return times


def end_to_end(base, seed, seconds, deadline):
    """Runs ops, one process each, for the given seconds; returns the result.

    The first op installs the barrier-profile hook: it counts the kernel
    events an op executes and, at seeds without a committed digest, fixes
    the digest every later op must reproduce. It is not timed.
    """
    setups = probe_setup(base, SETUP_PROBES // 2, deadline)
    attempted = failed = 0
    want = []
    events = 0
    walls, allocs, rss, spent = [], [], [], []
    host = None
    start = time.monotonic()
    while len(spent) < 3 or time.monotonic() - start + statistics.median(spent) <= seconds:
        first = attempted == 0
        began = time.monotonic()
        setup, code, lines = run_once(base + want + (["-count"] if first else []), deadline)
        attempted += 1
        op = tagged(lines, "op") if code == 0 else None
        host = host or tagged(lines, "host")
        if setup is not None:
            setups.append(setup)
        if op is None or not op["ok"]:
            failed += 1
            print(f"perfbench: failed op (exit {code})", file=sys.stderr)
        if op is not None:
            events = op["events"] or events
            if seed != 42 and not want and op["ok"]:
                want = ["-want", op["digest"]]
        if first:
            start = time.monotonic()
            continue
        spent.append(time.monotonic() - began)
        # An op that ran to the end is timed even if its result is wrong;
        # it still counts as failed.
        if op is not None:
            walls.append(op["wall_s"])
            allocs.append(op["alloc_mb"])
            rss.append(op["rss_mb"])
        if time.monotonic() > deadline:
            break
    setups += probe_setup(base, SETUP_PROBES // 2, deadline)
    if not walls:
        sys.exit("perfbench: no op ran to the end")

    op_s = statistics.median(walls)
    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else [op_s] * 3
    print(f"host {json.dumps(host)}")
    print(f"e2e: op_s median {op_s:.4f} s, quartiles {q[0]:.4f}..{q[2]:.4f} s, n={len(walls)}; "
          f"{events} kernel events/op; setup_s median {statistics.median(setups):.5f} s, n={len(setups)}")
    print(f"checks: {attempted} ops attempted, {failed} failed (fail_frac {failed / attempted:.4g})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "op_s": {"value": op_s, "unit": "s"},
            "events_per_s": {"value": events / op_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "alloc_mb_per_op": {"value": statistics.median(allocs), "unit": "MB"},
        },
    }


def layer_run(base, seconds, deadline):
    """Runs the layer run in one process and returns its result."""
    _, code, lines = run_once(base + ["-trace", "1", "-seconds", str(seconds)], deadline)
    if code != 0:
        sys.exit(f"perfbench: layer run exited with {code}")
    result = tagged(lines, "result")
    for line in lines:
        if not line.startswith("result "):
            print(line)
    if result is None:
        sys.exit("perfbench: the layer run printed no result")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build_harness()
    except (OSError, subprocess.SubprocessError) as err:
        sys.exit(f"perfbench: building the harness failed: {err}")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = [str(binary), "-workload", args.workload, "-seed", str(args.seed)]
    if args.trace == 1:
        result = layer_run(base, args.seconds, deadline)
    else:
        result = end_to_end(base, args.seed, args.seconds, deadline)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
