"""The benchmark's own tests.

    python3 -m unittest bench/test_bench.py

They run every workload briefly through ``run.py`` and take about two
minutes.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
import time  # noqa: E402

from tracing import Tracer, entry_points, layer_metrics, per_layer_names  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
COUNT_UNITS = ("count", "bits")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, dict | None]:
    """Run the benchmark; return its exit code, provenance and result."""
    done = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        return done.returncode, None, None
    return done.returncode, json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


class MetricNames(unittest.TestCase):
    def test_names_and_units_use_only_allowed_characters(self):
        names = [m["name"] for kind in ("end_to_end", "per_layer") for m in DECLARED[kind]]
        names += [w["name"] for w in DECLARED["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)
        for kind in ("end_to_end", "per_layer"):
            for metric in DECLARED[kind]:
                self.assertRegex(metric["unit"], UNIT_RE)

    def test_declared_metrics_match_the_harness(self):
        self.assertEqual(
            [w["name"] for w in DECLARED["workloads"]], list(workloads.WORKLOADS)
        )
        layers = dict(per_layer_names(workloads.Pipeline.check_ids()))
        layers.update({
            "cli.overhead_s": "s",
            "trace.untraced_verdict_s": "s",
            "trace.traced_verdict_s": "s",
            "trace.overhead_ratio": "ratio",
        })
        self.assertEqual(declared("per_layer"), layers)


class Inputs(unittest.TestCase):
    def test_membership_queries_follow_the_seed(self):
        specs = workloads.membership_specs()
        first = workloads.make_queries(specs, 7, per_cell=2)
        self.assertEqual(len(first), 2 * len(specs) * len(workloads.MEMBERSHIP_DEGREES))
        self.assertEqual(first, workloads.make_queries(specs, 7, per_cell=2))
        self.assertNotEqual(first, workloads.make_queries(specs, 8, per_cell=2))

    def test_membership_asks_both_questions(self):
        share = workloads.prepare("membership", 3).info["member_share"]
        self.assertTrue(0.3 < share < 0.8, share)


class Tracing(unittest.TestCase):
    def test_every_binding_site_is_wrapped_and_restored(self):
        import genus2chow
        from genus2chow import graded, groebner, intlinalg, pipeline

        originals = [vars(owner)[attr] for _name, owner, attr, _stats in entry_points()]
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(pipeline.ideal_equal, groebner.ideal_equal.__wrapped__)
            self.assertIs(pipeline.ideal_equal, groebner.ideal_equal)
            self.assertIs(genus2chow.graded_piece, graded.graded_piece)
            self.assertTrue(hasattr(intlinalg.smith_normal_form, "__wrapped__"))
            for name, module in list(sys.modules.items()):
                if name == "genus2chow" or name.startswith("genus2chow."):
                    namespaces = [module] + [
                        v for v in vars(module).values() if isinstance(v, type)
                    ]
                    for namespace in namespaces:
                        for value in vars(namespace).values():
                            self.assertFalse(
                                any(value is o for o in originals),
                                f"{name}: unwrapped {value!r}",
                            )
        finally:
            tracer.uninstall()
        self.assertEqual(
            originals, [vars(owner)[attr] for _name, owner, attr, _stats in entry_points()]
        )

    def test_statistics_hooks_are_charged_to_no_span(self):
        hook_cpu_s = 0.3

        def slow_hook(_tracer, _args, _result):
            end = time.process_time() + hook_cpu_s
            while time.process_time() < end:
                pass

        def kernel(hook):
            for _ in range(2):
                tracer._span("intlinalg.snf", lambda: None, hook, (), {})

        measured = []
        for hook in (None, slow_hook):
            tracer = Tracer()
            tracer.reset()
            tracer.call("pipeline.check.thm-45", tracer.call, "graded.kernel", kernel, hook)
            measured.append(layer_metrics(tracer, ["thm:45"]))
        for name in ("graded.kernel_s", "pipeline.check.thm-45_s", "graded.self_s",
                     "pipeline.self_s", "intlinalg.snf_s"):
            with self.subTest(metric=name):
                self.assertLess(abs(measured[1][name] - measured[0][name]), hook_cpu_s / 2)
                self.assertGreaterEqual(measured[1][name], 0)


class Runs(unittest.TestCase):
    def test_every_workload_runs_and_is_correct(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                code, provenance, result = bench(
                    "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"
                )
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(provenance["fail_ratio"], 0)
                self.assertGreater(provenance["verdict_cpu_s"], 0)
                metrics = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(metrics, declared("end_to_end"))
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_runs_report_every_layer_and_repeat_their_counts(self):
        results = []
        for _ in range(2):
            code, _provenance, result = bench(
                "--workload", "verify-d12", "--seed", "1", "--seconds", "1", "--trace", "1"
            )
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            metrics = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(metrics, declared("per_layer"))
            results.append(result["metrics"])
        counts = [
            {k: v["value"] for k, v in r.items() if v["unit"] in COUNT_UNITS} for r in results
        ]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["intlinalg.snf_calls"], 0)
        self.assertGreater(results[0]["pipeline.check.thm-45_s"]["value"], 0)

    def test_failed_checks_count_without_crashing(self):
        from genus2chow import Pipeline

        report = Pipeline(max_degree=12, corruption="delta1-excision").run()
        broken = sum(c.status == "fail" for c in report.checks)
        self.assertGreater(broken, 0)
        code, provenance, result = bench(
            "--workload", "verify-d12", "--seed", "1", "--seconds", "1", "--trace", "0",
            "--corruption", "delta1-excision",
        )
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        # Warm-up plus timed iterations are corrupted; cold runs are not.
        iterations = 1 + provenance["samples"]["verdict_s"]
        cold = provenance["samples"]["cold_verify_s"]
        self.assertEqual(result["failed"], broken * iterations)
        self.assertEqual(result["attempted"], 21 * (iterations + cold))
        self.assertAlmostEqual(provenance["fail_ratio"], result["failed"] / result["attempted"])

    def test_without_the_program_it_fails_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            code, _provenance, result = bench(
                "--workload", "membership", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=Path(tmp),
            )
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
