"""The rank-2 splitting reduction and its three callers: symmetric rewriting,
the torus transfer and hyperplane powers, checked against the lex-profile
elimination and the four-rule transfer it replaced."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from genus2chow.classifying import bt_pushforward
from genus2chow.ring import (
    IntPolynomial,
    NotSymmetricError,
    Ring,
    reduce_roots,
    symmetrize_to_elementary,
)

from helpers import (
    random_homogeneous,
    reference_bt_pushforward,
    reference_symmetrize,
    torus_ring,
)


def _symmetrized(p: IntPolynomial, pairs) -> IntPolynomial:
    """The sum of p over every combination of swaps of the named root pairs."""
    ring = p.ring
    acc = p
    for a, b in pairs:
        swap = {a: ring.var(b), b: ring.var(a)}
        acc = acc + acc.substitute(swap)
    return acc


def _swapped(p: IntPolynomial, a: str, b: str) -> IntPolynomial:
    return p.substitute({a: p.ring.var(b), b: p.ring.var(a)})


def _as_classes(ring: Ring, families):
    """The families with each target name replaced by its variable."""
    return [(roots, tuple(ring.var(t) for t in targets)) for roots, targets in families]


class TestReduceRoots:
    """p = p0 + p1 a, with p0 and p1 polynomials in s, q and the scalars."""

    TARGET = Ring(("u", 1), ("v", 1), ("c", 1))

    def test_two_roots(self):
        ring = Ring(("a", 1), ("b", 1), ("c", 1))
        target = self.TARGET
        u, v = target.var("u"), target.var("v")
        rng = random.Random(3)
        for d in range(0, 7):
            for _ in range(5):
                p = random_homogeneous(ring, d, rng, max_terms=8, coeff_bound=100)
                p0, p1 = reduce_roots(p, ("a", "b"), u + v, u * v, target=target)
                assert p0.ring == p1.ring == target
                assert p.substitute({"a": u, "b": v}, target) == p0 + p1 * u
                # Free of the roots: both are polynomials in u + v and u v.
                assert _swapped(p0, "u", "v") == p0 and _swapped(p1, "u", "v") == p1

    def test_one_root(self):
        ring = Ring(("a", 1), ("c", 1))
        target = self.TARGET
        u, v = target.var("u"), target.var("v")
        rng = random.Random(4)
        for d in range(0, 7):
            for _ in range(5):
                p = random_homogeneous(ring, d, rng, max_terms=6, coeff_bound=100)
                p0, p1 = reduce_roots(p, ("a",), u + v, u * v, target=target)
                assert p.substitute({"a": u}, target) == p0 + p1 * u
                assert _swapped(p0, "u", "v") == p0 and _swapped(p1, "u", "v") == p1

    def test_powers_of_one_root(self):
        ring = Ring(("a", 1), ("s", 1), ("q", 2))
        s, q = ring.var("s"), ring.var("q")
        assert reduce_roots(ring.var("a") ** 2, ("a",), s, q) == (-q, s)
        assert reduce_roots(ring.var("a") ** 3, ("a",), s, q) == (-s * q, s * s - q)


class TestSymmetrizeAgainstReference:
    RING = Ring(
        ("e1", 1), ("e2", 2), ("f1", 1), ("f2", 2), ("c", 1),
        ("a1", 1), ("a2", 1), ("b1", 1), ("b2", 1),
    )
    FAMILIES = [(("a1", "a2"), ("e1", "e2")), (("b1", "b2"), ("f1", "f2"))]

    @pytest.mark.parametrize("npairs", [1, 2])
    def test_random_symmetric_inputs(self, npairs):
        # The inputs hold the targets and the scalar c besides the roots.
        families = self.FAMILIES[:npairs]
        rng = random.Random(17 + npairs)
        for _ in range(25):
            raw = random_homogeneous(self.RING, rng.randint(0, 5), rng, max_terms=6)
            p = _symmetrized(raw, [roots for roots, _ in families])
            out = symmetrize_to_elementary(p, _as_classes(self.RING, families))
            assert out == reference_symmetrize(p, families)

    def test_three_roots_rejected(self):
        ring = Ring(("e1", 1), ("e2", 2), ("e3", 3), ("a1", 1), ("a2", 1), ("a3", 1))
        a1, a2, a3 = ring.var("a1"), ring.var("a2"), ring.var("a3")
        family = [(("a1", "a2", "a3"), ("e1", "e2", "e3"))]
        p = a1 * a1 + a2 * a2 + a3 * a3
        with pytest.raises(ValueError):
            symmetrize_to_elementary(p, _as_classes(ring, family))
        # The reference still rewrites any number of roots.
        assert reference_symmetrize(p, family) == ring.parse("e1^2 - 2*e2")

    def test_wrong_target_weight_rejected(self):
        # The class given for a1 a2 has degree 1.
        ring = Ring(("e1", 1), ("e2", 1), ("a1", 1), ("a2", 1))
        with pytest.raises(ValueError):
            symmetrize_to_elementary(
                ring.var("a1") + ring.var("a2"),
                [(("a1", "a2"), (ring.var("e1"), ring.var("e2")))],
            )

    def test_asymmetric_second_pair(self):
        ring = self.RING
        p = (ring.var("a1") + ring.var("a2")) * ring.var("b1")
        with pytest.raises(NotSymmetricError) as err:
            symmetrize_to_elementary(p, _as_classes(ring, self.FAMILIES))
        exps, image = err.value.orbit
        i, j = ring.index("b1"), ring.index("b2")
        expected = list(exps)
        expected[i], expected[j] = exps[j], exps[i]
        assert exps[i] != exps[j] and tuple(expected) == image

    SCALARS = Ring(("c", 1), ("d", 1), ("g", 2), ("a1", 1), ("a2", 1))

    @settings(max_examples=60, deadline=None)
    @given(
        degree=st.integers(0, 4),
        coeffs=st.lists(st.integers(-50, 50), max_size=50),
        s_coeffs=st.tuples(*[st.integers(-9, 9)] * 2),
        q_coeffs=st.tuples(*[st.integers(-9, 9)] * 4),
    )
    @example(degree=3, coeffs=[1] * 50, s_coeffs=(0, 0), q_coeffs=(0, 0, 0, 0))
    def test_classes_as_targets(self, degree, coeffs, s_coeffs, q_coeffs):
        # Any classes s (degree 1, zero included) and q (degree 2) over the
        # scalars: the reduction equals the reference rewriting in
        # elementary variables e1, e2, read at e1 = s and e2 = q.
        scalars = self.SCALARS
        ring = Ring(("e1", 1), ("e2", 2), *zip(scalars.names, scalars.weights))
        terms = dict(zip(scalars.monomials_of_degree(degree), coeffs))
        raw = IntPolynomial(scalars, terms).into(ring)
        p = _symmetrized(raw, [("a1", "a2")])
        c, d, g = (ring.var(name) for name in ("c", "d", "g"))
        s = s_coeffs[0] * c + s_coeffs[1] * d
        q = q_coeffs[0] * c * c + q_coeffs[1] * c * d + q_coeffs[2] * d * d + q_coeffs[3] * g
        out = symmetrize_to_elementary(p, [(("a1", "a2"), (s, q))])
        expected = reference_symmetrize(p, [(("a1", "a2"), ("e1", "e2"))])
        assert out == expected.substitute({"e1": s, "e2": q})


class TestTransferAgainstReference:
    def test_into_bg(self, pipeline):
        bg, bt = pipeline.bg, torus_ring()
        rng = random.Random(23)
        for d in range(0, 7):
            for _ in range(6):
                p = random_homogeneous(bt, d, rng, coeff_bound=50)
                assert bt_pushforward(p, bg) == reference_bt_pushforward(p, bg)

    def test_into_alpha_ambient(self, pipeline):
        # As in the bielliptic family: ambient classes pass through as scalars.
        amb = pipeline.alpha_ambient
        ring = Ring(
            ("alpha1", 1), ("alpha2", 2), ("beta1", 1), ("gamma", 1), ("t1", 1), ("t2", 1)
        )
        rng = random.Random(29)
        for d in range(0, 7):
            for _ in range(6):
                p = random_homogeneous(ring, d, rng, max_terms=8, coeff_bound=50)
                assert bt_pushforward(p, amb) == reference_bt_pushforward(p, amb)
