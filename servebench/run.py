#!/usr/bin/env python3
"""Builds and runs the tenant-facing serving benchmark.

Run from the repository root:

    python3 servebench/run.py --workload sim_tenants --seed 1 --seconds 10 --trace 0

Builds servebench/ (which compiles the repository's src/ tree) into
.bench_build/servebench with CMake, runs the span-reducer self test, then
runs serve_bench in a scratch directory under the build tree. The last line
of standard output is the result object; see servebench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

# One run must end within 180 s once built; leave room for the wrapper.
RUN_TIMEOUT_S = 170
WORKLOADS = ("sim_tenants", "fleet_rounds")


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(1)


def source_id(root):
    """The git commit when the checkout has one, else a digest of src/."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base in ("src", "servebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "servebench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    steps.append([os.path.join(build_dir, "trace_test")])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"'{' '.join(cmd)}' exited with {proc.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no src/ tree under {root}; run from a full checkout")
    for tool in ("cmake",):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")

    build_dir = os.path.join(root, ".bench_build", "servebench")
    build(root, build_dir)

    workdir = os.path.join(build_dir, f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "serve_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--commit", source_id(root)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"serve_bench did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"serve_bench exited with {proc.returncode} and no result")
    sys.stdout.write(proc.stdout)
    print(f"servebench: run took {time.monotonic() - started:.1f} s",
          file=sys.stderr)


if __name__ == "__main__":
    main()
