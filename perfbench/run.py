#!/usr/bin/env python3
"""Run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Builds maxrs_serverd and the benchmark with dune, pins the load and the
process under test to different CPUs when there are two, runs the
workload in a fresh work directory, and relays its output. The last line
of standard output is the JSON result. Exits non-zero, without a result,
when the checkout cannot be built or a run fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

SERVERD = os.path.join("_build", "default", "bin", "maxrs_serverd.exe")
BENCH = os.path.join("_build", "default", "perfbench", "perfbench.exe")
# Everything a run leaves behind lives under these (both gitignored).
WORK_ROOT = ".perfbench-work"
SPANS_DIR = ".perfbench-out"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Short hash of the sources the benchmark builds, for the log."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:12]


def revision():
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip() + "+src." + source_digest()
    except (OSError, subprocess.SubprocessError):
        pass
    return "src." + source_digest()


def build():
    for needed in ("dune-project", os.path.join("bin", "dune"),
                   os.path.join("lib", "server", "server.ml")):
        if not os.path.exists(needed):
            fail("not the root of a maxrs checkout (missing %s)" % needed)
    r = subprocess.run(["dune", "build", "--root", ".", "./" + SERVERD[len("_build/default/"):],
                        "./" + BENCH[len("_build/default/"):]],
                       stdout=sys.stderr)
    if r.returncode != 0:
        fail("dune build failed (exit %d)" % r.returncode, 3)
    for exe in (SERVERD, BENCH):
        if not os.path.isfile(exe):
            fail("binary missing after build: %s" % os.path.abspath(exe), 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["ingest", "serve_reads", "solve_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--size", choices=["full", "smoke"], default="full",
                    help="smoke: tiny inputs, for the benchmark's own tests")
    args = ap.parse_args()

    build()
    cpus = sorted(os.sched_getaffinity(0))
    work_dir = os.path.abspath(os.path.join(
        WORK_ROOT, "%s-%d-%d" % (args.workload, args.seed, os.getpid())))
    cmd = [os.path.abspath(BENCH), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--size", args.size, "--serverd", os.path.abspath(SERVERD),
           "--nproc", str(len(cpus)), "--rev", revision(),
           "--work-dir", work_dir,
           "--spans-dir", os.path.abspath(SPANS_DIR)]
    os.makedirs(WORK_ROOT, exist_ok=True)
    os.makedirs(SPANS_DIR, exist_ok=True)
    if len(cpus) >= 2:
        if shutil.which("taskset") is None:
            fail("taskset not found on PATH; it pins the process under test "
                 "when there are two CPUs", 3)
        # The load runs here (CPU cpus[0]); the benchmark starts the
        # process under test on cpus[1].
        os.sched_setaffinity(0, {cpus[0]})
        cmd += ["--sut-cpu", str(cpus[1])]

    # A session of its own, so every descendant can be killed as a group.
    proc = subprocess.Popen(cmd, start_new_session=True)

    def finish(code):
        # Whatever is left of the group goes, then the run's work
        # directory (the benchmark removes it itself unless it was
        # killed).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
        sys.exit(code)

    def on_signal(signum, _frame):
        try:
            os.killpg(proc.pid, signal.SIGTERM)
            proc.wait(timeout=20)
        except (ProcessLookupError, PermissionError, subprocess.TimeoutExpired):
            pass
        finish(128 + signum)

    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(s, on_signal)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s; stopping it" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 124
    finish(code)


if __name__ == "__main__":
    main()
