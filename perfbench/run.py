#!/usr/bin/env python3
"""Builds and runs the repository benchmark, pinned to one CPU.

    python3 perfbench/run.py --workload files|hostile|wire --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The Rust benchmark in this directory is
built in release mode ($CARGO_TARGET_DIR, default perfbench/target); the
run's working files (artifact cache, socket, trace spans) go under
<target dir>/perfbench-work. The benchmark process and every thread it
starts are pinned to one CPU; if the pin cannot be applied the run fails
instead of reporting numbers. The last line of stdout is the result JSON.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        ref = open(head).read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                return open(path).read().strip()
        return ref
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(base)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep)
            for f in files
        )
        for p in paths:
            digest.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["files", "hostile", "wire"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    os.chdir(ROOT)
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("run from a checkout of the repository: the crates under test are missing")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    manifest = os.path.join("perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "perfbench")

    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    work = os.path.relpath(os.path.join(target, "perfbench-work"))
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work", work,
        "--nproc", str(len(allowed)),
        "--rev", revision(),
    ]
    try:
        proc = subprocess.Popen(cmd, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"cannot start the benchmark pinned to cpu {cpu}: {e}")
    sys.exit(proc.wait())


if __name__ == "__main__":
    main()
