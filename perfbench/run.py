#!/usr/bin/env python3
"""End-to-end benchmark of opus_daemon over its Unix socket.

Builds perfbench/ together with the library sources it links (../src) into
.bench_build/, then runs one workload in a fresh directory under
.bench_run/ that receives the daemon's socket and flight dumps, and removes
it afterwards. Run it from the repository root:

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 15 --trace 0

--trace 1 runs the traced variant and writes its spans as a Perfetto trace
to .bench_out/<workload>-seed<seed>.perfetto.json. The last line of stdout
is the JSON result; build output goes to stderr. The benchmark's own tests:

    cmake --build .bench_build --target perfbench_tests
    ctest --test-dir .bench_build --output-on-failure
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to perfbench/ (expected src/CMakeLists.txt)")
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time, even if runs start concurrently.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            if not run_quiet(configure):
                fail("cmake configure failed")
        target = ["cmake", "--build", BUILD, "--target", "perfbench_e2e", "-j3"]
        if not run_quiet(target):
            fail("build failed (a stale .bench_build can be removed by hand)")
    return os.path.join(BUILD, "perfbench_e2e")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    run_dir = os.path.join(ROOT, ".bench_run",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(run_dir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, "%s-seed%d.perfetto.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=run_dir)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        rc = 124
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
