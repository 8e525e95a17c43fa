#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark from source, then runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload fig1-high-avail --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --check-figures

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
the traced replay (see perfbench/README.md). The last line of standard output
is one JSON object. The build lives in .bench_build/perfbench; build output
goes to standard error.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fig1-high-avail", "fig2-low-avail", "robustness-campaign")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(command):
    """Runs a build step with its output on stderr; exits on failure. The
    compiler's temporary files go under the build tree, not the system /tmp."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, check=False,
                            env=dict(os.environ, TMPDIR=tmp))
    if result.returncode != 0:
        fail(f"{' '.join(command)} failed with code {result.returncode}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/ not found next to perfbench/; run from a full checkout")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD, "-j", jobs])
    run_quiet([os.path.join(BUILD, "perfbench_selftest")])


def source_id():
    """The git commit when there is one, plus a digest of src/ (checkouts
    without git history still identify the measured code)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none"
    return f"git:{commit} src:{digest.hexdigest()[:16]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-figures", action="store_true",
                        help="compare the shipped Fig. 1/2 run with the committed CSVs")
    args = parser.parse_args()
    if not args.check_figures and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")

    build()
    if args.check_figures:
        command = [os.path.join(BUILD, "perfbench_e2e"), "--check-figures", "--root", ROOT]
    else:
        binary = "perfbench_traced" if args.trace else "perfbench_e2e"
        trace_dir = os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command = [os.path.join(BUILD, binary), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace-dir", trace_dir]
    command += ["--commit", source_id()]
    sys.stdout.flush()
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
