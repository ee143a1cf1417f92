#!/usr/bin/env python3
"""Toy-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, runs the harness at toy size with
--trace 0 and --trace 1 and checks that the result line carries every
end-to-end (respectively per-layer) metric with the unit BENCHMARK.json
gives, that the run is correct with zero output mismatches, and that the
report line carries the provenance fields. Then checks that a corrupted
served trajectory (--corrupt-round) trips the output check. Exits non-zero
on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROVENANCE = ("commit", "source_digest", "nproc", "cpu_model", "build_type",
              "obs_compiled", "cpu_busy_frac", "cpu_steal_frac",
              "cpu_iowait_frac", "cpu_ref_ms")


def run(workload, trace, *extra):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--toy"]
    done = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit("FAIL %s trace %d: no result (exit %d)\n%s" % (
            workload, trace, done.returncode, done.stderr[-2000:]))
    return done.returncode, json.loads(lines[-2])["report"], json.loads(lines[-1])


def check(cond, what):
    if not cond:
        sys.exit("FAIL " + what)
    print("ok   " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # fleet-mixed is kept in the harness but is not a gated workload (see
    # README.md); it is checked here like the others.
    names = [w["name"] for w in bench["workloads"]] + ["fleet-mixed"]
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, report, result = run(name, trace)
            tag = "%s trace %d" % (name, trace)
            check(code == 0 and result["correct"], tag + ": correct, exit 0")
            check(report["output_mismatches"] == 0, tag + ": no mismatches")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": result keys")
            expected = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, tag + ": every %s metric with its unit" % key)
            check(all(p in report["provenance"] for p in PROVENANCE),
                  tag + ": provenance")
            check(report["seed"] == 7 and report["samples"],
                  tag + ": seed and sample counts")
            check(all(t in report["tails"] for t in ("step_tail_ms",
                                                     "answer_tail_ms")),
                  tag + ": tail percentiles recorded")

    code, report, result = run(bench["workloads"][0]["name"], 0,
                               "--corrupt-round")
    check(code == 1 and not result["correct"] and
          report["output_mismatches"] >= 1,
          "corrupted trajectory trips the output check")
    print("selftest passed")


if __name__ == "__main__":
    main()
