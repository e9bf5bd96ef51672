#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload node-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --steady 10 --workload world --seconds 25
    python3 perfbench/run.py --record --workload oracle

The first form builds perfbench/ (a Go module of its own that builds the
program from the checkout's sources) into .bench_build/ and runs one
measurement; its last stdout line is the JSON result. --steady N runs the
workload N times back to back with seeds seed..seed+N-1 and prints each
metric's median, quartiles, min and max. --record re-records the
workload's expected simulated outputs in perfbench/expect/.

Every file the build or the run writes stays under .bench_build/.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    r = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env())
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def bench_args(args):
    return [BINARY, *args, "--root", ROOT, "--work", BUILD,
            "--expect", os.path.join(HERE, "expect"), "--git-rev", git_rev()]


def pop_flag(args, name, default=None):
    """Removes --name VALUE from args and returns VALUE."""
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            v = args[i + 1]
            del args[i:i + 2]
            return v
        if a.startswith(name + "="):
            del args[i]
            return a.split("=", 1)[1]
    return default


def steady(args, n):
    seed = int(pop_flag(args, "--seed", "1"))
    values, units, bad = {}, {}, 0
    for k in range(n):
        r = subprocess.run(bench_args(args + ["--seed", str(seed + k)]), cwd=ROOT,
                           capture_output=True, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            sys.stderr.write(r.stderr)
            sys.exit("perfbench: run %d (seed %d) exited %d" % (k, seed + k, r.returncode))
        res = json.loads(lines[-1])
        if not res["correct"]:
            bad += 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed + k, " ".join(
            "%s=%.6g" % (name, m["value"]) for name, m in sorted(res["metrics"].items()))), flush=True)
    print("%-28s %-6s %12s %12s %12s %12s %12s %8s" % (
        "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med"))
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        print("%-28s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f" % (
            name, units[name], med, q1, q3, min(v), max(v), spread))
    print("runs %d, incorrect %d" % (n, bad))
    return 1 if bad else 0


def main():
    args = sys.argv[1:]
    n = pop_flag(args, "--steady")
    build()
    if n is not None:
        return steady(args, int(n))
    return subprocess.run(bench_args(args), cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
