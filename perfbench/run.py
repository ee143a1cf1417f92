#!/usr/bin/env python3
"""Builds the served-fleet benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <solo-d1|fleet-mixed|churn> \
        --seed <n> --seconds <s> --trace <0|1>

The library (src/) and the harness (perfbench/ledger/) are configured and
built into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output goes to stderr so the result stays the last line of stdout.
Every other argument is passed to the harness, which is documented in
perfbench/README.md. Exits non-zero without a result when the build fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench_ledger")


def commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and harness sources, for checkouts without
    git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def main():
    binary = build(build_dir())
    scratch = os.path.join(build_dir(), "scratch", "run-%d" % os.getpid())
    cmd = [binary] + sys.argv[1:] + [
        "--scratch", scratch, "--commit", commit(),
        "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
