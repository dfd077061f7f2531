"""The benchmark's own tests, run at a tiny size in a few seconds:

    python3 perfbench/check_bench.py

Not collected by pytest (the file name does not match ``test_*.py``), so
the library's test suite is unchanged by the benchmark.
"""

import json
import shutil
import subprocess
import sys
import unittest

import reference
import run
import tracer as tracing
import worker
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "move_classes": {"move_pass": (((2, 2, 1), 1), ((3, 2), 2), ((3, 2, 2), 2))},
    "coordinate_flags": {"flag_shapes": ((2, 1), (2, 2), (2, 1, 1)), "flags_per_shape": 2},
    "chart_certificates": {"chart_ks": (2,), "membership_points": 2},
}


def tiny(name, seed=1):
    return workloads.setup(name, seed, **TINY[name])


def names_and_units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


class MetricNames(unittest.TestCase):
    def test_end_to_end_names_match_benchmark_json(self):
        w = tiny("coordinate_flags")
        loop = worker.loop(w, 0, None, min_ops=10)
        loop["setup_s"] = 0.5
        cold = {"setup_s": 0.4, "first_op_s": 0.01}
        metrics = run.end_to_end([cold], loop)
        want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(names_and_units(metrics), want)
        self.assertTrue(all(m["value"] > 0 for m in metrics.values()))

    def test_per_layer_names_match_benchmark_json(self):
        want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                t = tracing.Tracer()
                t.install()
                try:
                    w = tiny(name)
                    worker.loop(w, 0, t, min_ops=1)
                finally:
                    t.uninstall()
                self.assertEqual(names_and_units(t.layer_metrics()), want)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(tuple(w["name"] for w in BENCHMARK["workloads"]), workloads.WORKLOADS)
        self.assertEqual(run.WORKLOADS, workloads.WORKLOADS)


class ReferenceScaling(unittest.TestCase):
    def test_times_scale_by_the_local_reference(self):
        slow = 2 * reference.REFERENCE_S
        ref = [reference.REFERENCE_S] * 10 + [slow] * 10
        raw = [0.1] * 10 + [0.2] * 10 + [None]
        scaled = reference.scaled(raw, ref + [slow])
        self.assertAlmostEqual(scaled[0], 0.1)
        self.assertAlmostEqual(scaled[19], 0.1)
        self.assertIsNone(scaled[20])

    def test_reference_time_is_positive(self):
        self.assertGreater(reference.reference_time(), 0)


class Seeds(unittest.TestCase):
    def test_same_seed_same_op_list(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(tiny(name, 7).ops, tiny(name, 7).ops)

    def test_different_seed_different_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertNotEqual(tiny(name, 7).ops, tiny(name, 8).ops)

    def test_full_size_op_lists_are_seeded(self):
        for name in ("move_classes", "chart_certificates"):
            with self.subTest(workload=name):
                a, b = workloads.setup(name, 3), workloads.setup(name, 3)
                self.assertEqual(a.ops, b.ops)
                self.assertNotEqual(a.ops, workloads.setup(name, 4).ops)


class Failures(unittest.TestCase):
    def corrupt(self, w, index, expect):
        op = w.ops[index]
        w.ops[index] = workloads.Op(op.kind, op.args, expect)

    def assert_counted(self, w, wrong_per_pass):
        out = worker.loop(w, 0, None, min_ops=1)
        timed = [x for p in out["latencies_s"] for x in p if x is not None]
        self.assertEqual(out["failed"], wrong_per_pass * out["passes"])
        self.assertEqual(len(timed), out["attempted"] - out["failed"])
        self.assertTrue(out["failures"])

    def test_wrong_cell_is_a_failure_not_a_timing(self):
        w = tiny("coordinate_flags")
        cell, dual = w.ops[0].expect
        self.corrupt(w, 0, (dual, dual) if cell != dual else ((), dual))
        self.assert_counted(w, 1)

    def test_wrong_class_count_fails_the_partition_and_its_queries(self):
        w = tiny("move_classes")
        self.assertEqual(w.ops[0].kind, "partition")
        self.corrupt(w, 0, w.ops[0].expect + 1)
        queries = sum(1 for op in w.ops if op.kind == "query" and op.args[0] == w.ops[0].args[0])
        self.assert_counted(w, 1 + queries)

    def test_wrong_membership_verdict_is_a_failure(self):
        w = tiny("chart_certificates")
        index = next(i for i, op in enumerate(w.ops) if op.kind == "membership")
        self.corrupt(w, index, False)
        self.assert_counted(w, 1)

    def test_correct_tiny_runs_pass(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                out = worker.loop(tiny(name), 0, None, min_ops=1)
                self.assertEqual(out["failed"], 0, out["failures"])


class Tracing(unittest.TestCase):
    def traced(self, name):
        t = tracing.Tracer()
        t.install()
        try:
            w = tiny(name)
            out = worker.loop(w, 0, t, min_ops=3 * len(w.ops))
        finally:
            t.uninstall()
        self.assertGreaterEqual(out["passes"], 3)
        return t.layer_metrics()

    def test_same_seed_gives_identical_counts(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                a, b = self.traced(name), self.traced(name)
                counts = [k for k in a if not k.endswith(".self_s")]
                self.assertEqual({k: a[k] for k in counts}, {k: b[k] for k in counts})
                self.assertTrue(any(a[k]["value"] for k in counts))

    def test_internal_bindings_are_wrapped_and_restored(self):
        import springerfiber.eqsmoves as eqsmoves
        import springerfiber.tableaux as tableaux

        original = tableaux.jdt_remove_min
        t = tracing.Tracer()
        t.install()
        try:
            self.assertIs(eqsmoves.jdt_remove_min, tableaux.jdt_remove_min)
            self.assertIsNot(tableaux.jdt_remove_min, original)
        finally:
            t.uninstall()
        self.assertIs(eqsmoves.jdt_remove_min, original)
        self.assertIs(tableaux.jdt_remove_min, original)

    def test_self_time_excludes_children(self):
        t = tracing.Tracer()
        t.install()
        try:
            w = tiny("coordinate_flags")
            worker.loop(w, 0, t, min_ops=1)
        finally:
            t.uninstall()
        m = t.layer_metrics()
        total = sum(v["value"] for k, v in m.items() if k.endswith(".self_s"))
        self.assertGreater(total, 0)
        self.assertLess(m["exactlin.cell_of.self_s"]["value"], total)


class Command(unittest.TestCase):
    def test_exits_nonzero_without_library_source(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, *BENCHMARK["command"][1:], "--workload", "move_classes",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
