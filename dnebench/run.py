#!/usr/bin/env python3
"""Entry point of the repository's benchmark (see README.md beside this file).

    python3 dnebench/run.py --workload rmat-inproc|rmat-shm|serve-mix \
        --seed N --seconds S --trace 0|1
    python3 dnebench/run.py --self-test

Builds the benchmark from the checkout's sources (CMake, Release) into
$CARGO_TARGET_DIR (default .bench_build), runs one workload, checks that the
reported metric names and units are exactly those BENCHMARK.json declares for
the mode, and relays dnebench's output; the last line is the JSON result.
Exits non-zero, without a result line, when the build fails (for example
outside a full checkout), and non-zero with "correct": false when any
correctness gate fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the first one in a checkout also builds,
# which has its own, longer allowance. The limit starts after the build.
RUN_LIMIT_S = 165.0


def fail(msg, code=2):
    sys.stderr.write("dnebench: %s\n" % msg)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(bdir):
    """Configures (once) and builds; all tool output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "partition", "dne",
                                       "dne_partitioner.h")):
        fail("library sources not found next to %s; run from a full checkout"
             % os.path.relpath(HERE, ROOT))
    cmake_dir = os.path.join(bdir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build step failed: %s" % " ".join(cmd))
    return cmake_dir


def source_digest():
    """Git commit when the checkout is a repository, plus a digest of the
    sources the benchmark builds from (an exported checkout has no .git)."""
    h = hashlib.sha256()
    for sub in ("src", "dnebench"):
        top = os.path.join(ROOT, sub)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    digest = "src:" + h.hexdigest()[:16]
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                ref = f.read().strip()
        digest = "git:%s,%s" % (ref[:12], digest)
    except OSError:
        pass
    return digest


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_result(result, trace):
    """Problems with the result line's shape against BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    end_to_end, per_layer = declared_metrics()
    want = per_layer if trace else end_to_end
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            problems.append("metric %s: declared unit %s, reported %s"
                            % (name, want.get(name), got.get(name)))
    return problems


def self_test(cmake_dir):
    ok = subprocess.run([os.path.join(cmake_dir, "dnebench_test")]).returncode == 0
    listing = subprocess.run([os.path.join(cmake_dir, "dnebench"),
                              "--list-metrics"], capture_output=True, text=True)
    catalogue = json.loads(listing.stdout)
    end_to_end, per_layer = declared_metrics()
    for kind, declared in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        reported = {m["name"]: m["unit"] for m in catalogue if m["kind"] == kind}
        if reported != declared:
            ok = False
            sys.stderr.write("dnebench: %s metrics differ from BENCHMARK.json:"
                             " only declared %s, only reported %s\n" % (
                                 kind, sorted(set(declared.items()) -
                                              set(reported.items())),
                                 sorted(set(reported.items()) -
                                        set(declared.items()))))
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    cmake_dir = build(bdir)
    if args.self_test:
        return self_test(cmake_dir)
    if not args.workload:
        fail("--workload is required")

    work_dir = os.path.join(bdir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(cmake_dir, "dnebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir,
           "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM first: dnebench then kills its op child's process group.
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        fail("benchmark run exceeded its time limit")

    lines = out.splitlines()
    if not lines:
        fail("benchmark printed no result (exit code %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result (exit code %d)" % proc.returncode)
    problems = check_result(result, args.trace == 1)
    code = proc.returncode
    if problems:
        for p in problems:
            sys.stderr.write("dnebench: %s\n" % p)
        result["correct"] = False
        lines[-1] = json.dumps(result)
        code = code or 1
    sys.stdout.write("\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
