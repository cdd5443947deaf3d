"""Self-tests of the benchmark's own code: the trace rollup, the W1 table
check, and the metric names against BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import rollup  # noqa: E402
import run  # noqa: E402


def load(path):
    with open(path) as f:
        return json.load(f)


def bench_result(**overrides):
    result = {
        "threads": 2,
        "probe": {"first_region_threads": 1, "regions": 2},
        "timed_region_threads": 2,
        "reps": [{"wall_s": 0.001, "begin_us": 200.0, "end_us": 1200.0, "items": 2, "ok_items": 1}],
    }
    result.update(overrides)
    return result


class RollupTest(unittest.TestCase):
    def setUp(self):
        self.trace = load(os.path.join(HERE, "fixture_trace.json"))
        self.report = load(os.path.join(HERE, "fixture_report.json"))
        untraced = bench_result(reps=[dict(bench_result()["reps"][0], wall_s=0.0008)])
        self.m = rollup.rollup("design_plane_warm", self.report, self.trace, bench_result(),
                               untraced)

    def test_every_metric_is_reported(self):
        for name, _ in rollup.METRICS:
            self.assertIn(name, self.m)

    def test_self_times_and_counts(self):
        # run_transient spans: 300 + 500 us with a 50 us solve_dc child.
        self.assertAlmostEqual(self.m["circuit.transient_self_s"], 750e-6)
        self.assertEqual(self.m["circuit.transient_runs"], 2)
        self.assertEqual(self.m["circuit.dc_solves"], 1)
        self.assertAlmostEqual(self.m["circuit.steps_per_run_mean"], 500.0)
        self.assertAlmostEqual(self.m["circuit.newton_per_step"], 2.5)
        self.assertAlmostEqual(self.m["model.fet_tables_s"], 50e-6)
        self.assertAlmostEqual(self.m["device.load_table_s"], 20e-6)
        self.assertAlmostEqual(self.m["service.query_s"], 30e-6)
        self.assertEqual(self.m["service.misses"], 1)
        self.assertEqual(self.m["negf.rgf_solves"], 0)
        self.assertAlmostEqual(self.m["linalg.pcg_iterations_per_solve_mean"], 25.0)

    def test_tasks_percentiles_and_busy_share(self):
        self.assertEqual(self.m["explore.task_samples"], 2)
        self.assertAlmostEqual(self.m["explore.task_p50_s"], 400e-6)
        self.assertEqual(self.m["explore.failed_tasks"], 1)
        # (400 + 600) us of tasks in a 1000 us window on 2 threads.
        self.assertAlmostEqual(self.m["common.busy_share"], 0.5)
        self.assertAlmostEqual(self.m["bench.trace_overhead"], 0.8)
        self.assertEqual(self.m["common.pool_first_region_threads"], 1)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(rollup.tail(list(range(100)))[0], 90.0)
        self.assertEqual(rollup.tail(list(range(40))), (75.0, 29))
        self.assertEqual(rollup.tail([3.0, 1.0, 2.0])[0], 50.0)


class DeviceTableCheckTest(unittest.TestCase):
    def setUp(self):
        self.reference = checks.load_table_csv(run.NOMINAL_TABLE)
        vg = [0.05 + 0.1 * i for i in range(10)]
        vd = [0.05 + 0.2 * i for i in range(4)]
        self.outputs = {"vg": vg, "vd": vd, "current_A": [], "charge_C": []}
        for g in vg:
            for d in vd:
                i, q = self.reference[checks.plane_index(g, d)]
                self.outputs["current_A"].append(i)
                self.outputs["charge_C"].append(q)

    def test_reference_itself_passes(self):
        attempted, failures = checks.check_device_table(self.outputs, self.reference)
        self.assertEqual(attempted, 40)
        self.assertEqual(failures, [])

    def test_scaled_currents_fail(self):
        perturbed = {k: (i * 1.10, q) for k, (i, q) in self.reference.items()}
        _, failures = checks.check_device_table(self.outputs, perturbed)
        self.assertTrue(any("current" in f for f in failures))

    def test_shifted_charges_fail(self):
        q_max = max(abs(q) for _, q in self.reference.values())
        perturbed = {k: (i, q + 0.05 * q_max) for k, (i, q) in self.reference.items()}
        _, failures = checks.check_device_table(self.outputs, perturbed)
        self.assertEqual(len(failures), 40)

    def test_off_plane_bias_fails(self):
        outputs = dict(self.outputs, vg=[g + 0.01 for g in self.outputs["vg"]])
        _, failures = checks.check_device_table(outputs, self.reference)
        self.assertTrue(all("off the 0.05 V plane" in f for f in failures))


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        self.spec = load(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"))

    def test_end_to_end_names_and_units(self):
        declared = [(m["name"], m["unit"]) for m in self.spec["end_to_end"]]
        self.assertEqual(declared, run.END_TO_END)
        result = {"peak_rss_mb": 10.0, "reps": bench_result()["reps"]}
        printed = run.end_to_end("design_plane_warm", result, setup_s=0.1)
        self.assertEqual(sorted(printed), sorted(name for name, _ in run.END_TO_END))

    def test_per_layer_names_and_units(self):
        declared = [(m["name"], m["unit"]) for m in self.spec["per_layer"]]
        self.assertEqual(declared, rollup.METRICS)

    def test_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, [w for w in run.WORKLOADS if w in names])
        self.assertGreaterEqual(len(names), 2)


if __name__ == "__main__":
    unittest.main()
