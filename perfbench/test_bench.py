#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of the repository:

    python3 perfbench/test_bench.py [-v]

They build the perfbench binary through run.py, then check that traced and
untraced runs agree, that the seed drives the inputs, that the recovery counters
stay at zero where recovery is disarmed, that the trace file is well formed,
and that the benchmark refuses to run without the runtime's sources.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = ["taskbench_random", "taskbench_mt", "miniweather_graph",
             "cholesky_8gpu", "recovery_faults"]
FAULT_FREE = WORKLOADS[:4]
SECONDS = "0.2"


def drive(workload, seed, trace, trace_out=None):
    """Runs the binary; returns (lines starting with '#', result dict)."""
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if p.returncode != 0 or not result["correct"]:
        raise AssertionError("%s failed (%d):\n%s" % (workload, p.returncode, p.stdout[-3000:]))
    return [l for l in lines if l.startswith("#")], result


def tagged(comments, workload, tag):
    prefix = "# %s %s " % (workload, tag)
    for line in comments:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise AssertionError("no '%s' line for %s" % (tag, workload))


class Bench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("build failed")

    def test_traced_and_untraced_runs_agree(self):
        for wl in WORKLOADS:
            plain = json.loads(tagged(drive(wl, 7, 0)[0], wl, "outcome"))
            traced = json.loads(tagged(drive(wl, 7, 1)[0], wl, "outcome"))
            if wl == "taskbench_mt":
                # Worker threads pick their stream stripes in arrival order,
                # so only the counts are interleaving-independent.
                keys = ["tasks", "failures"]
            else:
                keys = sorted(plain)
            for k in keys:
                self.assertEqual(plain[k], traced[k], "%s: %s" % (wl, k))

    def test_seed_drives_graph_and_fault_schedule(self):
        for wl in ["taskbench_random", "recovery_faults"]:
            a = tagged(drive(wl, 1, 0)[0], wl, "inputs").split()[0]
            again = tagged(drive(wl, 1, 0)[0], wl, "inputs").split()[0]
            b = tagged(drive(wl, 2, 0)[0], wl, "inputs").split()[0]
            self.assertEqual(a, again, wl)
            self.assertNotEqual(a, b, wl)

    def test_recovery_counters_zero_without_faults(self):
        for wl in FAULT_FREE:
            metrics = drive(wl, 3, 1)[1]["metrics"]
            rec = {k: v["value"] for k, v in metrics.items() if k.startswith("recovery.")}
            self.assertTrue(rec, wl)
            for k, v in rec.items():
                self.assertEqual(v, 0, "%s: %s" % (wl, k))
        metrics = drive("recovery_faults", 3, 1)[1]["metrics"]
        self.assertGreater(metrics["recovery.checkpoints_taken"]["value"], 0)

    def test_trace_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            for wl in ["taskbench_random", "miniweather_graph", "taskbench_mt"]:
                path = os.path.join(tmp, wl + ".json")
                drive(wl, 5, 1, path)
                subprocess.run([sys.executable, "-m", "json.tool", path],
                               stdout=subprocess.DEVNULL, check=True)
                with open(path) as f:
                    check_spans(self, wl, json.load(f)["traceEvents"])


def check_spans(t, wl, events):
    """Children nest in their parents; a rep's self times add up to its wall."""
    spans = {e["args"]["id"]: e["args"] | {"name": e["name"]} for e in events}
    t.assertTrue(spans, wl)
    child_ns = {i: 0 for i in spans}
    for s in spans.values():
        p = s["parent"]
        if p == 0:
            t.assertEqual(s["name"], "rep", wl)
            continue
        parent = spans[p]
        t.assertEqual(parent["rep"], s["rep"], wl)
        t.assertLessEqual(parent["start_ns"], s["start_ns"], wl)
        t.assertLessEqual(s["end_ns"], parent["end_ns"], wl)
        child_ns[p] += s["end_ns"] - s["start_ns"]
    self_ns, wall_ns = {}, {}
    for i, s in spans.items():
        dur = s["end_ns"] - s["start_ns"]
        self_ns[s["rep"]] = self_ns.get(s["rep"], 0) + dur - child_ns[i]
        if s["parent"] == 0:
            wall_ns[s["rep"]] = dur
    t.assertEqual(self_ns, wall_ns, wl)


class MissingSources(unittest.TestCase):
    def test_fails_without_runtime_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "taskbench_random",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
