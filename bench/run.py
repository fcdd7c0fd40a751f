"""Benchmark of the genus2chow verifier: time to a verdict, end to end and by layer.

    python3 bench/run.py --workload verify-d12 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Every measurement happens in a fresh child
process (``worker.py``), one at a time.  With ``--trace 0`` the run reports
the end-to-end metrics:

    verdict_s      median time of one warm iteration of the workload
    cold_verify_s  median time of a cold `python -m genus2chow verify`
                   process doing the workload's kind of work
    setup_s        median time to import genus2chow and build the inputs,
                   over several fresh processes
    peak_rss_mb    peak resident memory of the measuring process

Times are CPU time of the process that does the work (see worker.py for
why), scaled to a fixed machine speed (see speed.py for why); the unscaled
CPU and wall-time medians are in the provenance line.

With ``--trace 1`` it runs the workload untraced and then traced in one
process and reports the per-layer metrics of ``tracing.py``, the tracing
overhead and ``cli.overhead_s``.  Every output is checked (golden witness
digests, Smith-form membership answers); a wrong answer, crash or hang counts
as a failed operation.  The last line of standard output is the result; the
line before it holds the provenance, sample counts and fail ratio.  See
README.md for the reasons behind each workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

SETUP_PROCESSES = 5      # set-up samples: 4 set-up-only processes + the measuring one
RUN_LIMIT_S = 170        # the whole run ends within this, hung children included
CHILD_GRACE_S = 60       # time a measuring child may overrun --seconds
PHASE_METRIC = {"timed": "verdict_s", "traced": "trace.traced_verdict_s"}
MODE_METRIC = {"setup": "setup_s", "measure": "verdict_s", "trace": "trace.traced_verdict_s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One hash seed for every process, so set and dict layouts match from run
    # to run and only timing noise differs.
    env["PYTHONHASHSEED"] = "0"
    return env


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """Accumulates the samples and the operation counts of one benchmark run."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.layers: list[dict] = []
        self.info: dict = {}
        self.rss_mb: float | None = None

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def fail(self, ops: int, why: str) -> None:
        self.attempted += ops
        self.failed += ops
        self.problems.append(why)

    def timeout(self, cap: float) -> float:
        return max(0.0, min(cap, self.deadline - time.perf_counter()))

    def child(self, mode: str, cap: float) -> None:
        """Run one worker process and take in everything it reported."""
        a = self.args
        cmd = [
            sys.executable, str(WORKER), "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--mode", mode,
        ]
        if a.corruption:
            cmd += ["--corruption", a.corruption]
        start = time.perf_counter()
        try:
            done = subprocess.run(
                cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                timeout=self.timeout(cap),
            )
            output, hung = done.stdout, False
        except subprocess.TimeoutExpired as exc:
            output, hung = exc.stdout or "", True
            if isinstance(output, bytes):
                output = output.decode()
        waited = time.perf_counter() - start
        ops, ended = 1, False
        for line in output.splitlines():
            try:
                event = json.loads(line)
                kind = event["event"]
            except (json.JSONDecodeError, TypeError, KeyError):
                self.problems.append(f"{mode} process printed {line[:80]!r}")
                continue
            if kind == "setup":
                self.add("setup_s", event["s"])
                self.add("setup_cpu_s", event["cpu_s"])
                ops = event["ops"]
            elif kind == "iteration":
                self.attempted += event["ops"]
                self.failed += event["failed"]
                if event["failed"]:
                    self.problems.append(f"{event['failed']} wrong in a {event['phase']} iteration")
                if event["phase"] != "warmup":
                    self.add(PHASE_METRIC[event["phase"]], event["s"])
                if event["phase"] == "timed":
                    self.add("verdict_cpu_s", event["cpu_s"])
                    self.add("verdict_wall_s", event["wall_s"])
                if event["layers"] is not None:
                    self.layers.append(event["layers"])
            elif kind == "cold":
                self.attempted += event["ops"]
                self.failed += event["failed"]
                self.add("cold_verify_s", event["s"])
                self.add("cold_verify_cpu_s", event["cpu_s"])
                if event["overhead_s"] is None:
                    self.problems.append("a cold run printed no report or did not finish")
                else:
                    self.add("cli.overhead_s", event["overhead_s"])
                if event["failed"]:
                    self.problems.append(f"{event['failed']} wrong in a cold run")
            elif kind == "end":
                ended = True
                self.info = event["info"]
                self.rss_mb = event["rss_mb"]
        if hung:
            # The set-up or iteration in progress never finished: it is a
            # failure, and its time is at least what the parent waited.
            self.fail(ops, f"{mode} process stopped after {waited:.1f} s")
            self.add(MODE_METRIC[mode], waited)
        elif done.returncode or not ended:
            self.fail(ops, f"{mode} process exited with code {done.returncode}")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run) -> dict:
    return {
        "verdict_s": (median(run.samples.get("verdict_s", [])), "s"),
        "cold_verify_s": (median(run.samples.get("cold_verify_s", [])), "s"),
        "setup_s": (median(run.samples.get("setup_s", [])), "s"),
        "peak_rss_mb": (run.rss_mb or 0.0, "MiB"),
    }


def per_layer(run: Run) -> dict:
    from tracing import per_layer_names
    from workloads import Pipeline

    names = per_layer_names(Pipeline.check_ids())
    metrics = {}
    for name, unit in names:
        values = [layers[name] for layers in run.layers]
        if unit == "s":
            metrics[name] = (median(values), unit)
        else:
            # Counts must repeat exactly; a count that moves between
            # iterations of the same code is a fault of the run.
            if len(set(values)) > 1:
                run.problems.append(f"{name} differs between traced iterations: {values}")
            metrics[name] = (values[0] if values else 0, unit)
    untraced = median(run.samples.get("verdict_s", []))
    traced = median(run.samples.get("trace.traced_verdict_s", []))
    metrics["cli.overhead_s"] = (median(run.samples.get("cli.overhead_s", [])), "s")
    metrics["trace.untraced_verdict_s"] = (untraced, "s")
    metrics["trace.traced_verdict_s"] = (traced, "s")
    metrics["trace.overhead_ratio"] = (traced / untraced - 1 if untraced else 0.0, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corruption", default=None,
        help="fault to inject into every Pipeline (for the benchmark's own tests)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "genus2chow" / "__init__.py").is_file():
        print(f"no genus2chow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The benchmark's modules import genus2chow, so they load only from here on.
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2

    run = Run(args)
    if args.trace:
        run.child("trace", args.seconds + CHILD_GRACE_S)
    else:
        for _ in range(SETUP_PROCESSES - 1):
            run.child("setup", CHILD_GRACE_S)
        run.child("measure", args.seconds + CHILD_GRACE_S)

    metrics = per_layer(run) if args.trace else end_to_end(run)
    for problem in run.problems:
        print(problem, file=sys.stderr)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "samples": {k: len(v) for k, v in run.samples.items()},
        # Unscaled medians, for reading the metrics in plain seconds.
        **{
            name: median(run.samples.get(name, []))
            for name in ("verdict_cpu_s", "verdict_wall_s", "cold_verify_cpu_s", "setup_cpu_s")
        },
        "fail_ratio": run.failed / run.attempted if run.attempted else 1.0,
        **run.info,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not run.problems and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
