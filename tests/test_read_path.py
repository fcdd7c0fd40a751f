"""The membership read path: parse, normal form, render.

Each query of the benchmark's ``membership`` workload is read from text,
reduced by a strong Groebner basis and written back.  These tests pin that
path's answers and what its speed rests on: no import per call, no degree
summed again per reduced term, term maps adopted only when freshly built,
and monomials enumerated in order without a sort.
"""

import builtins
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from genus2chow import parse
from genus2chow.groebner import RingSpec
from genus2chow.ring import IntPolynomial, Ring

from helpers import grevlex_key, reference_reduce

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


def _query_texts(specs: dict, count: int) -> list[tuple[RingSpec, str]]:
    """The first ``count`` seeded membership queries, as the workload writes them."""
    queries = workloads.make_queries(specs, seed=1)[:count]
    return [
        (specs[name], workloads.format_polynomial(p.ring, p.term_map())) for name, _d, p in queries
    ]


class TestNoPerCallOverhead:
    def test_parse_reduce_and_render_import_nothing(self, pipeline, monkeypatch):
        specs = pipeline.presentations
        texts = _query_texts(specs, 200)
        assert {spec.ring for spec, _ in texts} == {spec.ring for spec in specs.values()}
        for spec in specs.values():
            spec.groebner  # completed outside the counted loop
        imported = []
        real_import = builtins.__import__

        def counting_import(name, *args, **kwargs):
            imported.append(name)
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", counting_import)
        for spec, text in texts:
            p = spec.parse(text)
            str(p)
            str(spec.normal_form(p))
        monkeypatch.undo()
        assert imported == []

    def test_ring_reaches_parse_through_module_attributes(self, monkeypatch):
        # bench/tracing.py wraps parse.parse_polynomial and
        # parse.render_polynomial where the parse module binds them.
        ring = Ring(("x", 1), ("y", 2))
        seen = []
        for attr in ("parse_polynomial", "render_polynomial"):
            original = getattr(parse, attr)

            def wrapper(*args, _attr=attr, _original=original):
                seen.append(_attr)
                return _original(*args)

            monkeypatch.setattr(parse, attr, wrapper)
        p = ring.parse("x^2 - 3*y")
        assert str(p) == "x^2 - 3*y"
        assert seen == ["parse_polynomial", "render_polynomial"]

    def test_a_second_reduction_sums_no_degree(self, monkeypatch):
        ring = Ring(("x", 1), ("y", 1), ("z", 2))
        spec = RingSpec(ring, [ring.parse(t) for t in ("2*x", "3*y^2 - x*y", "x*z - 2*y^3")])
        p = ring.parse("x^3*z + 5*y^3*z - 7*x*y^4 + z^3 + 4*x^2*y^4")
        first = spec.normal_form(p)
        summed = []
        real_degree = Ring.monomial_degree

        def counting_degree(self, exps):
            summed.append(exps)
            return real_degree(self, exps)

        monkeypatch.setattr(Ring, "monomial_degree", counting_degree)
        again = spec.normal_form(p)
        monkeypatch.undo()
        assert again == first
        assert summed == []


_RING = Ring(("x", 1), ("y", 1), ("z", 2))
_SPEC = RingSpec(
    _RING, [_RING.parse(t) for t in ("2*x", "3*y^2 - x*y", "x*z - 2*y^3", "5*z^2")]
)
_IMAGES = {"x": _RING.parse("y - x"), "z": _RING.parse("x*y + 2*z")}

_polynomials = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3), st.integers(-9, 9), max_size=6
).map(lambda terms: IntPolynomial(_RING, terms))


class TestAdoptedTermMaps:
    @settings(max_examples=80, deadline=None)
    @given(_polynomials, _polynomials, st.integers(-2, 3), st.integers(0, 3))
    def test_results_own_their_term_maps(self, p, q, k, n):
        basis = _SPEC.groebner
        inputs = [p, q, *_IMAGES.values(), *basis.elements, *_SPEC.relations.generators]
        snapshots = [dict(g._terms) for g in inputs]
        results = [
            p + q, p - q, p + k, p - k, k - p, -p, p * q, p * k, p ** n, q ** 1,
            *p.coefficients(["x"]).values(), *q.coefficients([]).values(),
            p.substitute(_IMAGES), p.substitute({}),
            _SPEC.normal_form(p), _SPEC.normal_form(p * q),
            _RING.parse(str(p)), _RING.parse(f"({p}) * ({q}) - {k}"),
        ]
        held = {id(g._terms) for g in inputs} | {id(basis._rows)}
        owned = [id(r._terms) for r in results]
        assert not held.intersection(owned)
        assert len(set(owned)) == len(owned)
        assert [g._terms for g in inputs] == snapshots


def _all_exponents(weights, d):
    """Every exponent tuple of weighted degree d, in no particular order."""
    if not weights:
        return [()] if d == 0 else []
    w, rest = weights[-1], weights[:-1]
    return [
        head + (e,) for e in range(d // w + 1) for head in _all_exponents(rest, d - e * w)
    ]


class TestMonomialOrder:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=5), st.integers(0, 12))
    def test_monomials_of_degree_descend_in_grevlex(self, weights, d):
        ring = Ring(*[(f"v{i}", w) for i, w in enumerate(weights)])
        expected = sorted(
            _all_exponents(tuple(weights), d), key=lambda e: grevlex_key(ring, e), reverse=True
        )
        assert ring.monomials_of_degree(d) == expected
        assert not ring._key_cache  # enumerated without a sort key

    def test_membership_answers_match_plain_division(self):
        specs = workloads.membership_specs()
        queries = workloads.make_queries(specs, seed=1)
        assert len(queries) == 588
        for name, _d, p in queries:
            spec = specs[name]
            parsed = spec.parse(workloads.format_polynomial(spec.ring, p.term_map()))
            nf = spec.normal_form(parsed)
            assert parsed == p
            assert nf == reference_reduce(p, spec.groebner.elements), (name, str(p))
            assert spec.parse(str(nf)) == nf
