"""Self-tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import cyclotome  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def synthetic():
    """root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 7]."""
    rec = tracer.Recorder()
    root = rec.add_span("root", 0.0, 10.0)
    rec.add_span("leaf", 1.0, 4.0, root)
    b = rec.add_span("mid", 5.0, 9.0, root)
    rec.add_span("leaf", 6.0, 7.0, b)
    return rec


class SelfTime(unittest.TestCase):
    def test_duration_minus_direct_children(self):
        rec = synthetic()
        self.assertEqual(tracer.self_times(rec.parents, rec.starts, rec.ends), [3.0, 3.0, 3.0, 1.0])

    def test_per_name_sums_and_counts(self):
        calls, self_s = tracer.per_name(synthetic())
        self.assertEqual(calls, {"root": 1, "leaf": 2, "mid": 1})
        self.assertEqual(self_s, {"root": 3.0, "leaf": 4.0, "mid": 3.0})

    def test_self_times_add_up_to_root_duration(self):
        rec = synthetic()
        self.assertAlmostEqual(sum(tracer.self_times(rec.parents, rec.starts, rec.ends)), 10.0)

    def test_wrappers_nest_and_count(self):
        rec = tracer.Recorder()
        inner = rec.span("inner", lambda x: x + 1, distinct=True)
        outer = rec.span("outer", lambda x: inner(x) + inner(x) + inner(0))
        self.assertEqual(outer(1), 5)
        self.assertEqual(list(rec.parents), [-1, 0, 0, 0])
        calls, _ = tracer.per_name(rec)
        self.assertEqual(calls, {"inner": 3, "outer": 1})
        self.assertEqual(rec.distinct(), {"inner": 2})

    def test_span_file_round_trip_offsets_parents(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "a.spans")
            rec = synthetic()
            rec.bump("x.calls", 3)
            rec.write(path)
            merged = tracer.Recorder()
            merged.add_span("mid", 20.0, 21.0)
            merged.merge_file(path)
        self.assertEqual(list(merged.parents), [-1, -1, 1, 1, 3])
        self.assertEqual(merged.counts, {"x.calls": 3})
        self.assertEqual(tracer.per_name(merged)[0], {"mid": 2, "root": 1, "leaf": 2})


class Percentiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50.5)
        self.assertAlmostEqual(run.percentile(values, 90), 90.1)
        self.assertEqual(run.percentile([7.0], 90), 7.0)
        self.assertEqual(run.percentile([3, 1, 2], 0), 1)
        self.assertEqual(run.percentile([3, 1, 2], 100), 3)

    def test_p90_needs_one_hundred_samples(self):
        self.assertEqual(run.samples_beyond(100, 90), 10)
        self.assertEqual(run.samples_beyond(99, 90), 9)
        self.assertEqual(run.samples_beyond(108, 90), 10)
        self.assertEqual(run.samples_beyond(3, 90), 0)


class KostantProductCount(unittest.TestCase):
    def count(self, index, m, mp):
        return workloads.kostant_product_count(m, mp, workloads.KostantTable(index))

    def enumerated(self, index, m, mp):
        return len(cyclotome.enumerate_l_dominant(index, workloads.weight_vector(index, m, mp)))

    def test_a2_readme_example(self):
        index = cyclotome.build_index(cyclotome.orient("A2", "linear"))
        self.assertEqual(self.count(index, [1, 1], [0, 0]), 2)

    def test_a3_baseline_weight(self):
        # w = 2 sigma(S_i) + sigma(Sigma S_i) for every i has 188 solutions.
        index = cyclotome.build_index(cyclotome.orient("A3", "alternating"))
        self.assertEqual(self.count(index, [2, 2, 2], [1, 1, 1]), 188)

    def test_agrees_with_enumeration_on_a2_a3(self):
        for dynkin_type, weights in (
            ("A2", [([1, 0], [1, 0]), ([2, 1], [0, 1]), ([1, 1], [1, 1]), ([0, 2], [2, 0])]),
            ("A3", [([1, 1, 0], [0, 1, 1]), ([2, 0, 1], [1, 0, 2]), ([0, 0, 0], [1, 2, 1])]),
        ):
            for orientation in ("linear", "alternating"):
                index = cyclotome.build_index(cyclotome.orient(dynkin_type, orientation))
                for m, mp in weights:
                    with self.subTest(type=dynkin_type, orientation=orientation, m=m, mp=mp):
                        self.assertEqual(self.count(index, m, mp), self.enumerated(index, m, mp))

    def test_zero_weight_has_the_zero_solution(self):
        index = cyclotome.build_index(cyclotome.orient("A2", "linear"))
        self.assertEqual(self.count(index, [0, 0], [0, 0]), 1)


class LiftWork(unittest.TestCase):
    def test_partitions_agree_with_the_library(self):
        index = cyclotome.build_index(cyclotome.orient("D4", "alternating"))
        work = workloads.LiftWork(index)
        for beta in ((1, 1, 1, 1), (2, 1, 0, 1), (1, 2, 1, 1), (0, 0, 0, 0)):
            self.assertEqual(work.partitions(beta), cyclotome.kostant_partitions(index, beta))

    def test_predicts_the_iota_calls_of_an_enumeration(self):
        index = cyclotome.build_index(cyclotome.orient("A3", "alternating"))
        for m, mp in (([2, 1, 0], [1, 1, 1]), ([0, 1, 2], [0, 0, 1]), ([1, 0, 1], [2, 0, 0])):
            rec = tracer.Recorder()
            with tracer.installed(rec):
                cyclotome.enumerate_l_dominant(index, workloads.weight_vector(index, m, mp))
            self.assertEqual(tracer.layer_metrics(rec, 0.0)["dominance.iota.calls"],
                             workloads.LiftWork(index)(m, mp))


class Tracing(unittest.TestCase):
    def test_patches_every_namespace_and_restores(self):
        original = cyclotome.relations.d_form
        rec = tracer.Recorder()
        index = cyclotome.build_index(cyclotome.orient("A2", "linear"))
        with tracer.installed(rec):
            self.assertIsNot(cyclotome.relations.d_form, original)
            self.assertIsNot(cyclotome.forms.d_form, original)
            report = cyclotome.verify_ef(index, 1, 1)
        self.assertIs(cyclotome.relations.d_form, original)
        self.assertIs(cyclotome.d_form, original)
        metrics = tracer.layer_metrics(rec, 0.0)
        self.assertEqual(metrics["relations.verify_ef.checks"], len(report.checks))
        self.assertGreater(metrics["forms.d_form.calls"], 0)
        self.assertGreater(metrics["quiver.euler_form.calls"], 0)
        self.assertEqual(metrics["dominance.enumerate_l_dominant.calls"], 1)

    def test_pair_counts_from_check_names(self):
        self.assertEqual(tracer.check_pairs("identity holds on all 53^2 ordered pairs"),
                         ("same-n", 2809))
        self.assertEqual(tracer.check_pairs("identity holds on all 75 eligible ordered pairs"),
                         ("same-form", 75))
        self.assertIsNone(tracer.check_pairs("d(E,F) = 0"))


class BenchmarkFile(unittest.TestCase):
    def test_names_and_units_match_the_code(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(set(run.WORKLOAD_NAMES), set(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            [(f"{layer}.{stat}", unit, better) for layer, stat, unit, better in tracer.PER_LAYER],
        )
        setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in bench["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
