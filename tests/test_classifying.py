"""Classifying-space calculus: the derived presentation, the torus transfer,
doubled-weight Chern classes and representation Euler classes."""

import random

import pytest

from genus2chow.bundles import BundleClasses, root_product
from genus2chow.classifying import bg_presentation, bt_pushforward, wn_chern
from genus2chow.groebner import RingSpec, ideal_equal
from genus2chow.pipeline import Pipeline
from genus2chow.ring import Ring

from helpers import bt_pullback, random_homogeneous, torus_ring, wn_chern_from_tensor_identity


@pytest.fixture(scope="module")
def bg():
    return Pipeline().bg


@pytest.fixture(scope="module")
def bt():
    return torus_ring()


class TestBgPresentation:
    def test_derivation_succeeds(self, bg):
        deriv = bg_presentation(bg.ring)
        assert deriv.excision_relations[0] == deriv.excision_relations[0].ring.parse(
            "2*t - 2*alpha1"
        )
        assert deriv.excision_relations[1] == deriv.excision_relations[0].ring.parse(
            "t^2 - alpha1*t"
        )
        derived = RingSpec(bg.ring, deriv.substituted_relations)
        assert ideal_equal(derived, bg)

    def test_substituted_relations(self, bg):
        deriv = bg_presentation(bg.ring)
        sub1, sub2 = deriv.substituted_relations
        ring = sub1.ring
        assert sub1 == ring.parse("2*gamma")
        assert sub2 == ring.parse("gamma^2 + beta1*gamma")


class TestTransfer:
    def test_pullback_values(self, bg, bt):
        ring = bg.ring
        assert bt_pullback(ring.var("beta2"), bt) == bt.parse("t1*t2")
        assert bt_pullback(ring.var("gamma"), bt) == 0
        assert bt_pullback(ring.parse("beta1^2 - 2*beta2"), bt) == bt.parse("t1^2 + t2^2")

    def test_pushforward_values(self, bg, bt):
        ring = bg.ring
        assert bt_pushforward(bt.parse("t1"), bg) == ring.parse("beta1 + gamma")
        assert bt_pushforward(bt.parse("24*t2^2"), bg) == ring.parse(
            "24*beta1^2 - 48*beta2"
        )
        assert bt_pushforward(bt.parse("t1*t2^2"), bg) == ring.parse(
            "beta1*beta2 + beta2*gamma"
        )
        assert bt_pushforward(bt.one(), bg) == ring.const(2)

    def test_projection_formula_random(self, bg, bt):
        rng = random.Random(41)
        for _ in range(100):
            q = random_homogeneous(bg.ring, rng.randint(1, 3), rng, coeff_bound=50)
            p = random_homogeneous(bt, rng.randint(1, 4), rng, coeff_bound=50)
            lhs = bt_pushforward(bt_pullback(q, bt) * p, bg)
            rhs = bg.normal_form(q * bt_pushforward(p, bg))
            assert lhs == rhs

    def test_degree_doubling(self, bg, bt):
        # Pushforward after pullback multiplies by the covering degree.
        for d in range(0, 7):
            for exps in bg.ring.monomials_of_degree(d):
                mono = bg.ring.polynomial({exps: 1})
                assert bt_pushforward(bt_pullback(mono, bt), bg) == bg.normal_form(
                    2 * mono
                )


class TestDoubledChernClasses:
    def test_small_weights(self, bg):
        ring = bg.ring
        assert wn_chern(0, bg) == (ring.parse("gamma"), ring.zero())
        assert wn_chern(1, bg) == (ring.parse("beta1 + 2*gamma"), ring.parse("beta2"))
        assert wn_chern(6, bg) == (ring.parse("6*beta1 + 7*gamma"), ring.parse("36*beta2"))

    def test_negative_weight_via_duality(self, bg):
        ring = bg.ring
        assert wn_chern(-2, bg) == (ring.parse("gamma - 2*beta1"), ring.parse("4*beta2"))

    def test_closed_form_matches_duality_mod_relations(self, bg):
        for n in range(1, 9):
            c1n, c2n = wn_chern(-n, bg)
            c1, c2 = wn_chern(n, bg)
            assert bg.normal_form(c1n + c1) == 0
            assert bg.normal_form(c2n - c2) == 0

    def test_tensor_identity_rederivation(self, bg):
        for n in range(2, 9):
            c1t, c2t = wn_chern_from_tensor_identity(n, bg)
            c1, c2 = wn_chern(n, bg)
            assert bg.normal_form(c1t - c1) == 0
            assert bg.normal_form(c2t - c2) == 0

    def test_tensor_identity_needs_n_at_least_two(self, bg):
        with pytest.raises(ValueError):
            wn_chern_from_tensor_identity(1, bg)


@pytest.fixture(scope="module")
def alpha_ambient():
    ring = Ring(("alpha1", 1), ("alpha2", 2), ("beta1", 1), ("beta2", 2), ("gamma", 1))
    g, b1 = ring.var("gamma"), ring.var("beta1")
    return RingSpec(ring, (2 * g, g * g + b1 * g))


def _standard(spec: RingSpec) -> BundleClasses:
    """The dual standard bundle of the rank-2 group, with roots r1 and r2."""
    return BundleClasses(c1=-spec.ring.var("alpha1"), c2=spec.ring.var("alpha2"))


class TestEulerClasses:
    def test_twisted_cubics(self, alpha_ambient):
        # Sym^3 twisted by the determinant: roots (i - 1) r1 + (2 - i) r2.
        zero = alpha_ambient.ring.zero()
        out = root_product(
            [_standard(alpha_ambient)], [(zero, (i - 1, 2 - i)) for i in range(4)]
        )
        assert alpha_ambient.normal_form(out) == alpha_ambient.parse(
            "9*alpha2^2 - 2*alpha1^2*alpha2"
        )

    def test_paired_linear_forms(self, alpha_ambient, bg):
        # The roots r1 + 2 r2 and 2 r1 + r2, each plus a root of the doubled
        # weight -2.
        ring = alpha_ambient.ring
        c1, c2 = wn_chern(-2, bg)
        doubled = BundleClasses(c1=c1.into(ring), c2=c2.into(ring))
        out = root_product(
            [_standard(alpha_ambient), doubled],
            [(ring.zero(), (m, 3 - m, k, 1 - k)) for m in (1, 2) for k in (0, 1)],
        )
        stated = alpha_ambient.parse(
            "4*alpha1^4 + 12*alpha1^3*beta1 + 8*alpha1^2*beta1^2 + 4*alpha1^2*alpha2"
            " + 6*alpha1*alpha2*beta1 + 4*alpha2*beta1^2 + 20*alpha1^2*beta2"
            " + 24*alpha1*beta1*beta2 + alpha1*alpha2*gamma + alpha2*beta1*gamma"
            " + alpha2^2 - 8*alpha2*beta2 + 16*beta2^2"
        )
        assert alpha_ambient.normal_form(out) == alpha_ambient.normal_form(stated)
