"""What the benchmark binds in the package.

``bench/tracing.py`` wraps named functions at every place the package binds
them and reads the Smith and Hermite transforms, and ``bench/workloads.py``
reads named pipeline intermediates and passes ``corruption``.  These tests
fail fast when a change to ``src/`` removes or renames one of them; the
benchmark's own suite (``python3 -m unittest bench/test_bench.py``) notices
too, but takes about half a minute.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from genus2chow import graded, pipeline  # noqa: E402
from genus2chow.groebner import RingSpec  # noqa: E402
from genus2chow.pipeline import Pipeline  # noqa: E402
from genus2chow.ring import IntPolynomial  # noqa: E402


def _targets():
    return [vars(owner)[attr] for _name, owner, attr, _stats in tracing.entry_points()]


def test_every_traced_entry_point_resolves():
    for _name, owner, attr, _stats in tracing.entry_points():
        assert attr in vars(owner), f"{owner!r} has no {attr}"


def test_tracer_restores_the_originals():
    originals = _targets()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert hasattr(pipeline.multiplication_kernel, "__wrapped__")
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(_targets(), originals))
    assert pipeline.multiplication_kernel is graded.multiplication_kernel


def test_membership_reads_six_named_presentations():
    specs = workloads.membership_specs()
    presentations = Pipeline(max_degree=5).presentations
    assert set(specs) == set(presentations) == {
        "classifying", "boundary", "twist-quotient", "open-stratum", "total", "bielliptic",
    }
    for name, spec in specs.items():
        assert isinstance(spec, RingSpec)
        gens = spec.relations.generators
        assert gens and all(isinstance(g, IntPolynomial) for g in gens)
        assert gens == presentations[name].relations.generators, name


def test_tracer_reads_the_linear_algebra_it_measures():
    # The statistics hooks read every Smith transform; these two checks take
    # Smith forms, and thm:45 takes the kernel lattices.  No Hermite transform
    # is built, so the Hermite counts read 0.
    ids = ["thm:45", "bielliptic-mod2"]
    tracer = tracing.Tracer()
    tracer.reset()
    try:
        tracer.install()
        report = Pipeline(max_degree=5).run(ids=ids)
    finally:
        tracer.uninstall()
    assert report.overall == "pass", [c.witness for c in report.checks]
    metrics = tracing.layer_metrics(tracer, ids)
    for name in ("intlinalg.snf_calls", "intlinalg.snf_max_bits", "graded.kernel_s"):
        assert metrics[name] > 0, name


def test_pipeline_takes_the_benchmark_keywords():
    # workloads.py passes max_degree and corruption to every verify Pipeline.
    for corruption in (None, "delta1-excision"):
        assert Pipeline(max_degree=10, corruption=corruption).corruption == corruption
