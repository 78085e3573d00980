#!/usr/bin/env python3
"""The benchmark's own tests. From the root of a checkout:

    python3 perfbench/test_perfbench.py

Runs a smoke size of every workload end to end, traced and untraced,
with every check on; checks that scripts are seeded; that
BENCHMARK.json declares exactly the metrics the program prints; that
the traced replay reconciles within 5%; that every check rejects a
planted wrong answer; that the serve_reads set-up takes no cold reply
and little waiting of the harness's own; and that the harness fails
loudly outside a checkout or when it cannot pin. Takes about two
minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["ingest", "serve_reads", "solve_mix"]


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    return doc, {m["name"]: m["unit"] for m in doc["end_to_end"]}, \
        {m["name"]: m["unit"] for m in doc["per_layer"]}


def run_smoke(workload, trace, seed=3):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return r


def bench(*args):
    return subprocess.run([BENCH, *args], cwd=ROOT, capture_output=True, timeout=120)


class Smoke(unittest.TestCase):
    """Every workload end to end at smoke size, every check on."""

    def check_run(self, workload, trace):
        r = run_smoke(workload, trace)
        self.last = r
        self.assertEqual(r.returncode, 0, r.stderr[-3000:])
        res = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], r.stderr[-3000:])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        _, e2e, layer = declared()
        want = layer if trace else e2e
        self.assertEqual(list(res["metrics"]), list(want))
        for name, m in res["metrics"].items():
            self.assertEqual(m["unit"], want[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
        if not trace:
            for name, m in res["metrics"].items():
                self.assertGreater(m["value"], 0, name)
            self.assertRegex(r.stdout, r"p99_ms +[0-9.]+ ms +\(n=[0-9]+\)")
        else:
            self.assertLessEqual(res["metrics"]["trace.reconcile_pct"]["value"], 5.0)
        return res

    def test_ingest(self):
        self.check_run("ingest", 0)

    def test_ingest_traced(self):
        res = self.check_run("ingest", 1)
        m = res["metrics"]
        # 4.5 cadences of writes: four snapshots
        self.assertEqual(m["snapshot.writes"]["value"], 4)
        self.assertGreater(m["recovery.replayed"]["value"], 0)

    def test_serve_reads(self):
        self.check_run("serve_reads", 0)
        # The harness's own wait in set-up is the fixed quiet window,
        # not a fallback cap, and warm-up takes no cold reply.
        m = re.search(r"set-up: median ([0-9.]+) s, of which the harness waited "
                      r"([0-9.]+) s; ([0-9]+) cold replies in all", self.last.stdout)
        self.assertIsNotNone(m, self.last.stdout)
        self.assertLess(float(m.group(2)), 0.25)
        self.assertLess(float(m.group(2)), float(m.group(1)))
        self.assertEqual(int(m.group(3)), 0)

    def test_serve_reads_traced(self):
        res = self.check_run("serve_reads", 1)
        self.assertEqual(res["metrics"]["rmsq.builds"]["value"], 1)

    def test_solve_mix(self):
        self.check_run("solve_mix", 0)

    def test_solve_mix_traced(self):
        res = self.check_run("solve_mix", 1)
        self.assertGreater(res["metrics"]["sweep.events_per_weighted"]["value"], 0)


class Seeded(unittest.TestCase):
    """The same seed gives a byte-identical request script; another seed
    a different one."""

    def test_scripts(self):
        for w in WORKLOADS:
            for size in ("smoke", "full"):
                a = bench("script", "--workload", w, "--seed", "5", "--size", size)
                b = bench("script", "--workload", w, "--seed", "5", "--size", size)
                c = bench("script", "--workload", w, "--seed", "6", "--size", size)
                self.assertEqual(a.returncode, 0)
                self.assertGreater(len(a.stdout), 0)
                self.assertEqual(a.stdout, b.stdout, w)
                self.assertNotEqual(a.stdout, c.stdout, w)


class Declared(unittest.TestCase):
    """BENCHMARK.json declares exactly the metrics the program prints."""

    def test_names_and_units(self):
        out = bench("metrics").stdout.decode().splitlines()
        prog_e2e = {l.split()[1]: l.split()[2] for l in out if l.startswith("end_to_end ")}
        prog_layer = {l.split()[1]: l.split()[2] for l in out if l.startswith("per_layer ")}
        doc, e2e, layer = declared()
        self.assertEqual(prog_e2e, e2e)
        self.assertEqual(prog_layer, layer)
        self.assertEqual([w["name"] for w in doc["workloads"]], WORKLOADS)
        self.assertEqual(set(e2e), {"setup_s", "ops_per_s", "p50_ms",
                                    "peak_rss_mb", "quality_ratio"})


class Planted(unittest.TestCase):
    """Each check rejects a planted wrong answer."""

    def test_planted(self):
        r = bench("planted")
        self.assertEqual(r.returncode, 0, r.stdout.decode())


class Harness(unittest.TestCase):
    """Outside a checkout the harness exits non-zero without a result."""

    def test_no_checkout(self):
        d = os.path.join(ROOT, ".perfbench-work", "bare")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(d, "perfbench"))
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"metrics"', r.stdout)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def test_pin_without_taskset(self):
        serverd = os.path.join(ROOT, "_build", "default", "bin", "maxrs_serverd.exe")
        d = os.path.join(ROOT, ".perfbench-work", "unpinned")
        r = subprocess.run(
            [BENCH, "run", "--workload", "solve_mix", "--seed", "1", "--seconds", "1",
             "--trace", "0", "--size", "smoke", "--serverd", serverd, "--sut-cpu", "1",
             "--work-dir", d, "--spans-dir", d],
            cwd=ROOT, capture_output=True, text=True, timeout=60, env={"PATH": ""})
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("taskset", r.stderr)
        self.assertNotIn('"metrics"', r.stdout)
        self.assertFalse(os.path.exists(d))


if __name__ == "__main__":
    subprocess.run(["dune", "build", "./perfbench/perfbench.exe", "./bin/maxrs_serverd.exe"],
                   cwd=ROOT, check=True)
    unittest.main()
