#!/usr/bin/env python3
"""Builds and runs the V-cal end-to-end benchmark for one workload.

    python3 vbench/run.py --workload stencil --seed 1 --seconds 20 --trace 0

Run from anywhere; paths resolve against the checkout that holds this
file. The benchmark (vbench/CMakeLists.txt: the library in src/ plus the
harness here) is built in Release into $CARGO_TARGET_DIR/vbench
(default .bench_build/vbench), configured on first use and rebuilt
incrementally after. Each run gets a fresh work directory inside the
build directory, used as TMPDIR and as the JIT/native cache, and removed
afterwards, so every run compiles cold and nothing is written outside
the checkout. With --trace 1 the span file is kept under
<build>/spans/<workload>-seed<N>.json.

The last line of stdout is the benchmark's JSON result; build output
goes to stderr. The exit code is the benchmark's own (non-zero when an
output was wrong or the build failed).
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "vbench")
WORKLOADS = ("stencil", "shuffle", "serve-mix")
RUN_TIMEOUT_S = 170  # a run must finish well inside three minutes


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("vbench: library sources (src/) missing from " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "vbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(os.path.join(out, "vbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("vbench: build failed: %s" % e)

    work = os.path.join(out, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work, mode=0o700)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    env = dict(os.environ, TMPDIR=work)
    # Own process group: on a timeout every worker and compiler it
    # started is killed with it.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("vbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        code = 124
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
