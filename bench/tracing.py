"""Spans around calls into each layer of genus2chow, recorded from outside.

``Tracer.install`` replaces every public entry point of a layer by a wrapper
at every place the package binds it: in the defining module, in each module
that imported it by name (``pipeline`` binds ``ideal_equal``, ``graded_piece``
and friends directly), in the package namespace, and under every alias in a
class body (``IntPolynomial.__rmul__`` is ``__mul__``).  Calls made through a
module attribute (``graded`` calls ``intlinalg.smith_normal_form``; ``Ring.parse``
imports ``parse_polynomial`` lazily) then reach the wrapper as well.

Spans are timed in CPU time of the process, as the iterations are, and stay
in memory as records with a parent link; ``layer_metrics`` turns
the spans of one iteration into the per-layer metrics.  The tracer's own
measuring of matrix sizes, after a call returns, is charged to no span: each
span records the time its statistics hooks took anywhere inside it, and that
time is taken off its duration.  The self time of a layer is the time of its
spans minus the time of their child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

from genus2chow import bundles, classifying, graded, groebner, intlinalg, parse, pipeline, ring
from genus2chow.pipeline import Pipeline

LAYERS = ("intlinalg", "graded", "groebner", "ring", "parse", "bundles", "classifying", "pipeline")

# The spans of this many iterations are kept for writing out.  Keeping more
# would slow the garbage collector in every later iteration, traced or not.
KEPT_ITERATIONS = 2

# Fields of one span record.  HOOK_S is the time statistics hooks took
# inside the span, at any depth.
NAME, PARENT, START, END, OUTER_NAME, OUTER_LAYER, HOOK_S = range(7)


def check_span_name(check_id: str) -> str:
    return "pipeline.check." + check_id.replace(":", "-")


def _max_bits(*matrices) -> int:
    return max(
        (abs(x).bit_length() for matrix in matrices for row in matrix for x in row),
        default=0,
    )


def _snf_stats(tracer: "Tracer", args, result) -> None:
    tracer.maximum("intlinalg.snf_max_rows", result.nrows)
    tracer.maximum("intlinalg.snf_max_cols", result.ncols)
    tracer.maximum(
        "intlinalg.snf_max_bits",
        _max_bits(args[0], result.U, result.V, result.Uinv, result.Vinv, [result.diagonal]),
    )


def _hnf_stats(tracer: "Tracer", args, result) -> None:
    tracer.maximum("intlinalg.hnf_max_rows", len(result.rows))
    tracer.maximum("intlinalg.hnf_max_bits", _max_bits(args[0], result.rows, result.transform))


def _complete_stats(tracer: "Tracer", args, result) -> None:
    tracer.ideals.add(args[0])
    tracer.maximum("groebner.basis_max", len(result.elements))


def _run_check_name(args) -> str:
    return check_span_name(args[1])


def _public_functions(module) -> list[tuple[object, str]]:
    """Module-level public functions and public methods of public classes
    defined in ``module``, as (owner, attribute) pairs."""
    found = []
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            found.append((module, attr))
        elif inspect.isclass(value):
            for method, member in vars(value).items():
                if not method.startswith("_") and inspect.isfunction(member):
                    found.append((value, method))
    return found


def entry_points() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, statistics hook) for every traced call."""
    points = [
        ("intlinalg.snf", intlinalg, "smith_normal_form", _snf_stats),
        ("intlinalg.hnf", intlinalg, "hermite_normal_form", _hnf_stats),
        ("intlinalg.det", intlinalg, "determinant_expansion", None),
        ("graded.kernel", graded, "multiplication_kernel", None),
        ("graded.enumerate", graded, "enumerate_kernel_elements", None),
        ("graded.piece", graded, "graded_piece", None),
        ("graded.oracle", graded, "membership_matches_normal_form", None),
        ("groebner.complete", groebner, "strong_groebner", _complete_stats),
        ("groebner.ideal_equal", groebner, "ideal_equal", None),
        ("groebner.nf", groebner.StrongGroebnerBasis, "normal_form", None),
        ("ring.mul", ring.IntPolynomial, "__mul__", None),
        ("ring.substitute", ring.IntPolynomial, "substitute", None),
        ("ring.symmetrize", ring, "symmetrize_to_elementary", None),
        ("parse.parse", parse, "parse_polynomial", None),
        ("parse.render", parse, "render_polynomial", None),
        (_run_check_name, Pipeline, "run_check", None),
    ]
    for module in (bundles, classifying):
        layer = module.__name__.rsplit(".", 1)[1]
        for owner, attr in _public_functions(module):
            points.append((f"{layer}.{attr}", owner, attr, None))
    return points


def _binding_sites(original) -> list[tuple[object, str]]:
    """Every (namespace owner, attribute) in the package bound to ``original``."""
    sites = []
    for name, module in list(sys.modules.items()):
        if name != "genus2chow" and not name.startswith("genus2chow."):
            continue
        owners = [module] + [v for v in vars(module).values() if inspect.isclass(v)]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original and (owner, attr) not in sites:
                    sites.append((owner, attr))
    return sites


class Tracer:
    """Records spans and size counters for calls into the traced layers."""

    def __init__(self):
        self.spans: list[list] = []
        self.kept: list[list[list]] = []  # spans of the first KEPT_ITERATIONS
        self.maxima: dict[str, int] = {}
        self.ideals: set = set()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Start a new list of spans and counters."""
        self.spans = []
        if len(self.kept) < KEPT_ITERATIONS:
            self.kept.append(self.spans)
        self.maxima = {}
        self.ideals = set()

    def maximum(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self._span(name, fn, None, args, kwargs)

    def _span(self, name: str, fn, stats, args, kwargs):
        stack, spans, open_ = self._stack, self.spans, self._open
        layer = name.split(".", 1)[0]
        parent = stack[-1] if stack else -1
        record = [name, parent, 0.0, 0.0, open_[name] == 0, open_[layer] == 0, 0.0]
        stack.append(len(spans))
        spans.append(record)
        open_[name] += 1
        open_[layer] += 1
        record[START] = time.process_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.process_time()
            stack.pop()
            open_[name] -= 1
            open_[layer] -= 1
        if stats is not None:
            t0 = time.process_time()
            stats(self, args, result)
            hook_s = time.process_time() - t0
            for open_span in stack:
                spans[open_span][HOOK_S] += hook_s
        return result

    def _wrap(self, name, fn, stats):
        span = self._span
        if callable(name):
            def wrapper(*args, **kwargs):
                return span(name(args), fn, stats, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return span(name, fn, stats, args, kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def install(self) -> None:
        for name, owner, attr, stats in entry_points():
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, stats)
            for site, site_attr in _binding_sites(original):
                self._undo.append((site, site_attr, original))
                setattr(site, site_attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            site, attr, original = self._undo.pop()
            setattr(site, attr, original)


def per_layer_names(check_ids) -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    names = [
        ("intlinalg.snf_calls", "count"),
        ("intlinalg.snf_s", "s"),
        ("intlinalg.snf_max_rows", "count"),
        ("intlinalg.snf_max_cols", "count"),
        ("intlinalg.snf_max_bits", "bits"),
        ("intlinalg.hnf_calls", "count"),
        ("intlinalg.hnf_s", "s"),
        ("intlinalg.hnf_max_rows", "count"),
        ("intlinalg.hnf_max_bits", "bits"),
        ("intlinalg.det_s", "s"),
        ("graded.kernel_s", "s"),
        ("graded.enumerate_s", "s"),
        ("graded.piece_calls", "count"),
        ("graded.piece_s", "s"),
        ("graded.oracle_s", "s"),
        ("groebner.complete_calls", "count"),
        ("groebner.complete_distinct", "count"),
        ("groebner.complete_s", "s"),
        ("groebner.basis_max", "count"),
        ("groebner.ideal_equal_s", "s"),
        ("groebner.nf_calls", "count"),
        ("groebner.nf_s", "s"),
        ("ring.mul_calls", "count"),
        ("ring.mul_s", "s"),
        ("ring.substitute_s", "s"),
        ("ring.symmetrize_s", "s"),
        ("parse.parse_calls", "count"),
        ("parse.parse_s", "s"),
        ("parse.render_s", "s"),
        ("bundles.calls", "count"),
        ("bundles.s", "s"),
        ("classifying.calls", "count"),
        ("classifying.s", "s"),
    ]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [(check_span_name(c) + "_s", "s") for c in check_ids]
    return names


def layer_metrics(tracer: Tracer, check_ids) -> dict[str, float]:
    """Per-layer metrics of the spans recorded since the last reset.

    ``<op>_s`` is the time of the spans of that name not nested in another
    span of the same name; ``bundles.s`` and ``classifying.s`` count spans
    not nested in another span of their layer.
    """
    spans = tracer.spans
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    layer_calls: Counter = Counter()
    layer_inclusive: Counter = Counter()
    self_s: Counter = Counter()
    durations = [record[END] - record[START] - record[HOOK_S] for record in spans]
    child_s = [0.0] * len(spans)
    for record, duration in zip(spans, durations):
        if record[PARENT] >= 0:
            child_s[record[PARENT]] += duration
    for i, record in enumerate(spans):
        name = record[NAME]
        layer = name.split(".", 1)[0]
        calls[name] += 1
        layer_calls[layer] += 1
        if record[OUTER_NAME]:
            inclusive[name] += durations[i]
        if record[OUTER_LAYER]:
            layer_inclusive[layer] += durations[i]
        self_s[layer] += durations[i] - child_s[i]

    metrics: dict[str, float] = {}
    for name, _unit in per_layer_names(check_ids):
        if name == "groebner.complete_distinct":
            metrics[name] = len(tracer.ideals)
        elif name.endswith("_calls"):
            metrics[name] = calls[name[: -len("_calls")]]
        elif name.endswith(".self_s"):
            metrics[name] = self_s[name[: -len(".self_s")]]
        elif name in ("bundles.calls", "classifying.calls"):
            metrics[name] = layer_calls[name.split(".")[0]]
        elif name in ("bundles.s", "classifying.s"):
            metrics[name] = layer_inclusive[name.split(".")[0]]
        elif name.endswith("_s"):
            metrics[name] = inclusive[name[: -len("_s")]]
        else:
            metrics[name] = tracer.maxima.get(name, 0)
    return metrics
