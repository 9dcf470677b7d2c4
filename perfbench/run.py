#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload sim-msg --seed 1 --seconds 28 --trace 0

--workload all runs the four workloads in turn in one process.

The benchmark is a Go module of its own (perfbench/go.mod) that uses the
repository's module through a relative replace, so it is built from the
source in this checkout. Everything the build and the run write goes to
.bench_build/ at the root: the Go build cache, temporary files, the
binary and the traced run's spans. The binary's standard output is
passed through; its last line is the result object.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def source_digest():
    """sha256 over the Go sources and module files of the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in (".git", ".bench_build"))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    for sub in ("gocache", "tmp", "home"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOMODCACHE": os.path.join(BUILD, "gomod"),
        "HOME": os.path.join(BUILD, "home"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "home"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOENV": "off",
    })
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-commit", commit(), "-src-digest", source_digest(), "-spans", BUILD]
    try:
        # A run of one workload, build included, ends within three minutes.
        limit = 175 if args.workload != "all" else 4 * args.seconds + 170
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=max(30, limit - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
