"""One fresh benchmark process: set up a workload, then time its iterations.

Started by ``run.py``, never by hand.  It writes one JSON object per line to
standard output, flushed at once, so that the parent keeps every finished
iteration even if it has to stop this process:

    {"event": "setup", "s": ..., "cpu_s": ..., "ops": ...}
    {"event": "iteration", "phase": "warmup"|"timed"|"traced", "s": ...,
     "cpu_s": ..., "wall_s": ..., "ops": ..., "failed": ..., "layers": {...}}
    {"event": "cold", "s": ..., "cpu_s": ..., "wall_s": ..., "ops": ...,
     "failed": ..., "overhead_s": ...}
    {"event": "end", "rss_mb": ..., "info": {...}}

``cpu_s`` is CPU time; ``s`` is the same scaled to the fixed speed of
``speed.py``, by readings of the machine's speed taken just before and just
after the work.

Modes: ``setup`` stops after set-up.  ``measure`` runs one warm-up iteration,
then, for ``--seconds``, timed iterations interleaved with cold command-line
runs that take half the time.  ``trace`` does the same, but traces
every other iteration, and writes the spans of the first two traced
iterations under ``.bench_out/``.
"""

import os
import time

from speed import Speedometer

# One processor for this process and the cold runs it starts, so that the
# speed readings and the work they scale run on the same one.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

# Iterations, set-up and spans are timed in CPU time of this process, cold
# runs in CPU time of the child.  The work is single-threaded and never waits
# for I/O, so on an idle machine this equals wall time; unlike wall time it
# does not count the time the process waits for a processor.
CLOCK = time.process_time
# The first speed reading comes before any import, so set-up is bracketed.
SPEED = Speedometer()
_START = CLOCK()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Import genus2chow from this checkout's sources, and from nowhere else.
sys.path.insert(0, str(ROOT / "src"))

import genus2chow  # noqa: E402
import workloads  # noqa: E402
from tracing import (  # noqa: E402
    END, HOOK_S, NAME, PARENT, START, Tracer, layer_metrics, per_layer_names,
)

if Path(genus2chow.__file__).resolve().parent != ROOT / "src" / "genus2chow":
    raise SystemExit(f"genus2chow imported from {genus2chow.__file__}, not from {ROOT / 'src'}")

MIN_ITERATIONS = 3
MIN_COLD_RUNS = 3
MIN_TRACED_ITERATIONS = 2
COLD_SHARE = 1 / 2      # of the measuring time that goes to cold runs
COLD_TIMEOUT_S = 60


def emit(**fields) -> None:
    print(json.dumps(fields), flush=True)


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def iterate(workload, phase: str, tracer=None) -> float:
    """Run, time and check one iteration; report it; return its wall time.

    The span times of a traced iteration are scaled by the same factor as
    the iteration's own time."""
    layers = None
    if tracer is not None:
        tracer.reset()
    wall, start = time.perf_counter(), CLOCK()
    try:
        if tracer is None:
            result = workload.run()
        else:
            result = tracer.call("bench.iteration", workload.run)
    except Exception:  # a crashing iteration is a failed one; keep measuring
        elapsed, wall = CLOCK() - start, time.perf_counter() - wall
        factor = SPEED.factor()
        traceback.print_exc()
        failed = workload.ops
    else:
        elapsed, wall = CLOCK() - start, time.perf_counter() - wall
        factor = SPEED.factor()
        if tracer is not None:
            check_ids = workloads.Pipeline.check_ids()
            layers = layer_metrics(tracer, check_ids)
            for name, unit in per_layer_names(check_ids):
                if unit == "s":
                    layers[name] *= factor
        failed = workload.check(result)
    emit(
        event="iteration", phase=phase, s=elapsed * factor, cpu_s=elapsed, wall_s=wall,
        ops=workload.ops, failed=failed, layers=layers,
    )
    return wall


def cold_run(name: str) -> float:
    """Time and check one cold `python -m genus2chow verify` process doing the
    workload's kind of work; report it; return its wall time."""
    cmd = [sys.executable, "-m", "genus2chow"] + workloads.cold_args(name)
    ops = workloads.cold_ops(name)
    cpu, wall = children_cpu(), time.perf_counter()
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=COLD_TIMEOUT_S
        )
        report = json.loads(done.stdout)
    except (subprocess.TimeoutExpired, json.JSONDecodeError):
        report = None
    cpu, wall = children_cpu() - cpu, time.perf_counter() - wall
    factor = SPEED.factor()
    if report is None:
        failed, overhead = ops, None
    else:
        failed = workloads.cold_failures(name, report)
        overhead = wall - sum(c["elapsed_ms"] for c in report["checks"]) / 1000
    emit(
        event="cold", s=cpu * factor, cpu_s=cpu, wall_s=wall, ops=ops, failed=failed,
        overhead_s=overhead,
    )
    return wall


def interleaved_phase(workload, seconds: float, tracer: Tracer | None = None) -> None:
    """Timed iterations and cold runs, interleaved so that both sample the
    whole phase, with cold runs taking ``COLD_SHARE`` of its time.  Given a
    tracer, every other iteration is traced, so that traced and untraced
    iterations sample the same stretch of time too."""
    deadline = time.perf_counter() + seconds
    min_warm = 2 * MIN_TRACED_ITERATIONS if tracer else MIN_ITERATIONS
    warm = cold = 0
    warm_s = cold_s = 0.0
    while True:
        need_warm, need_cold = warm < min_warm, cold < MIN_COLD_RUNS
        if time.perf_counter() >= deadline:
            if not (need_warm or need_cold):
                return
            do_cold = need_cold
        else:
            do_cold = cold_s * (1 - COLD_SHARE) < warm_s * COLD_SHARE
        if do_cold:
            cold_s += cold_run(workload.name)
            cold += 1
        elif tracer is not None and warm % 2:
            tracer.install()
            try:
                warm_s += iterate(workload, "traced", tracer)
            finally:
                tracer.uninstall()
            warm += 1
        else:
            warm_s += iterate(workload, "timed")
            warm += 1


def write_spans(workload_name: str, seed: int, iterations: list) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    data = {
        "workload": workload_name,
        "seed": seed,
        "fields": ["name", "parent", "start_cpu_s", "end_cpu_s", "hook_cpu_s"],
        "iterations": [
            [[r[NAME], r[PARENT], r[START], r[END], r[HOOK_S]] for r in spans]
            for spans in iterations
        ],
    }
    (out / f"spans-{workload_name}-seed{seed}.json").write_text(json.dumps(data))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--corruption", default=None)
    args = parser.parse_args()

    workload = workloads.prepare(args.workload, args.seed, args.corruption)
    setup = CLOCK() - _START
    emit(event="setup", s=setup * SPEED.factor(), cpu_s=setup, ops=workload.ops)
    if args.mode == "measure":
        iterate(workload, "warmup")
        interleaved_phase(workload, args.seconds)
    elif args.mode == "trace":
        tracer = Tracer()
        iterate(workload, "warmup")
        interleaved_phase(workload, args.seconds, tracer)
        write_spans(args.workload, args.seed, tracer.kept)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    emit(event="end", rss_mb=rss_mb, info=workload.info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
