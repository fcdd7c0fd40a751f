"""Polynomial arithmetic, gradings, substitution, symmetric rewriting, series."""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from genus2chow.ring import (
    GradingError,
    InhomogeneousError,
    IntPolynomial,
    NotSymmetricError,
    Ring,
    RingMismatchError,
    chern_series_quotient,
    symmetrize_to_elementary,
)

from helpers import as_term_list, naive_product, random_homogeneous, reference_substitute


@pytest.fixture
def lring():
    return Ring(("lambda1", 1), ("lambda2", 2), ("t", 1))


@pytest.fixture
def aring():
    return Ring(("alpha1", 1), ("alpha2", 2), ("t", 1))


class TestConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Ring(("x", 1), ("x", 2))

    def test_zero_degree_rejected(self):
        with pytest.raises(ValueError):
            Ring(("x", 0))

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            Ring(("2x", 1))

    @pytest.mark.parametrize("weight", [1.5, 2.0, True, "1", None])
    def test_non_integer_weight_rejected(self, weight):
        # A float weight would give float exponents, and True would equal 1.
        with pytest.raises(ValueError, match="'x'"):
            Ring(("y", 1), ("x", weight))

    def test_names_and_weights_are_the_declaration(self):
        ring = Ring(("x", 1), ("y", 2))
        assert ring.names == ("x", "y") and ring.weights == (1, 2)
        assert ring.extend(("z", 3)) == Ring(("x", 1), ("y", 2), ("z", 3))
        assert ring != Ring(("x", 1), ("y", 1)) and ring != Ring(("y", 2), ("x", 1))
        assert repr(ring) == "Ring(x:1, y:2)"

    def test_zero_coefficients_dropped(self, lring):
        p = IntPolynomial(lring, {(1, 0, 0): 0, (0, 1, 0): 3})
        assert len(p) == 1

    @pytest.mark.parametrize("coeff", [1.0, "3", None])
    def test_non_integer_coefficient_rejected(self, lring, coeff):
        with pytest.raises(TypeError):
            lring.polynomial({(1, 0, 0): coeff})

    @pytest.mark.parametrize("exps", [(1, 0), (1, -1, 0)])
    def test_short_or_negative_exponent_tuple_rejected(self, lring, exps):
        with pytest.raises(ValueError):
            lring.polynomial({exps: 1})

    def test_bool_exponent_or_coefficient_rejected(self):
        # isinstance(True, int) holds, so bools need their own rejection: a
        # bool exponent equals 1 but would be stored as True.
        ring = Ring(("x", 1), ("y", 2))
        with pytest.raises(ValueError, match="bad exponent tuple"):
            ring.polynomial({(True, False): 1})
        with pytest.raises(ValueError, match="bad exponent tuple"):
            ring.polynomial({("1", 0): 1})
        with pytest.raises(TypeError):
            ring.polynomial({(1, 0): True})
        assert ring.polynomial({(1, 0): 1}).term_map() == {(1, 0): 1}

    def test_canonical_equality(self, lring):
        a = lring.parse("lambda1 + lambda1")
        b = 2 * lring.var("lambda1")
        assert a == b and hash(a) == hash(b)


class TestMultiply:
    def test_linear_product(self, lring):
        t, l1 = lring.var("t"), lring.var("lambda1")
        assert (t - 2 * l1) * (12 * t - 48 * l1) == lring.parse(
            "12*t^2 - 72*lambda1*t + 96*lambda1^2"
        )

    def test_bundle_relation_expansion(self, aring):
        # Oracle: schoolbook expansion over raw term lists, then frozen value.
        t, a1, a2 = aring.var("t"), aring.var("alpha1"), aring.var("alpha2")
        left = t * t - 2 * a1 * t + 4 * a2
        right = t - a1
        expected = naive_product(as_term_list(left), as_term_list(right))
        product = left * right
        assert product.term_map() == expected
        assert product == aring.parse(
            "t^3 - 3*alpha1*t^2 + (2*alpha1^2 + 4*alpha2)*t - 4*alpha1*alpha2"
        )

    def test_zero_annihilates(self, lring):
        p = lring.parse("3*t^2 - lambda2")
        assert p * lring.zero() == 0

    def test_ring_mismatch(self, lring, aring):
        with pytest.raises(RingMismatchError):
            lring.var("t") * aring.var("t")

    def test_arbitrary_precision(self, lring):
        big = 10 ** 40
        p = big * lring.var("lambda1")
        assert (p * p).term_map().get((2, 0, 0)) == big * big

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 3), st.integers(0, 6))
    def test_power_is_repeated_product(self, seed, terms, n):
        """One-term bases take the exponent-scaling shortcut, the others
        repeated squaring; both match schoolbook products."""
        ring = Ring(("lambda1", 1), ("lambda2", 2), ("t", 1))
        rng = random.Random(seed)
        p = random_homogeneous(ring, 2, rng, max_terms=terms) if terms else ring.zero()
        expected = {(0, 0, 0): 1}
        for _ in range(n):
            expected = naive_product([(c, e) for e, c in expected.items()], as_term_list(p))
        assert (p**n).term_map() == expected


class TestWeightedDegree:
    def test_homogeneous_weighted(self, lring):
        assert lring.parse("24*lambda1^2 - 48*lambda2").weighted_degree() == 2

    def test_degree_three(self):
        ring = Ring(("delta1", 1), ("lambda1", 1))
        assert ring.parse("delta1^3 + delta1^2*lambda1").weighted_degree() == 3

    def test_zero_polynomial_any_degree(self, lring):
        assert lring.zero().weighted_degree() is None

    def test_inhomogeneous_reports_pair(self, lring):
        p = lring.parse("lambda1 + lambda2")
        with pytest.raises(InhomogeneousError) as err:
            p.weighted_degree()
        assert set(err.value.witness) == {(1, 0, 0), (0, 1, 0)}


class TestSubstitute:
    def test_classifying_space_change_of_variable(self):
        ring = Ring(("alpha1", 1), ("gamma", 1), ("t", 1))
        t, a1, g = ring.var("t"), ring.var("alpha1"), ring.var("gamma")
        image = (t * t - a1 * t).substitute({"t": g + a1})
        assert image == g * g + a1 * g

    def test_identity_map(self, lring):
        p = lring.parse("t^2 - lambda1*t + 6*lambda2")
        assert p.substitute({}) == p

    def test_second_chern_substitution(self):
        ring = Ring(("alpha1", 1), ("beta1", 1), ("beta2", 2), ("lambda2", 2))
        a1, b1, l2 = ring.var("alpha1"), ring.var("beta1"), ring.var("lambda2")
        out = (16 * ring.var("beta2")).substitute({"beta2": l2 - a1 * a1 - a1 * b1})
        assert out == ring.parse("16*lambda2 - 16*alpha1^2 - 16*alpha1*beta1")

    def test_grading_violation_rejected(self, lring):
        p = lring.var("lambda2")
        with pytest.raises(GradingError):
            p.substitute({"lambda2": lring.var("t")})

    def test_image_over_another_ring_needs_a_target(self, lring):
        # The target is the polynomial's own ring unless given; it is never
        # read off the images.
        other = lring.extend(("u", 1))
        p = lring.parse("t^2 + lambda2")
        with pytest.raises(RingMismatchError):
            p.substitute({"t": other.var("u")})
        assert p.substitute({"t": other.var("u")}, target=other) == other.parse("u^2 + lambda2")

    def test_unused_entries_are_checked(self):
        # The whole map is checked, not only the variables the polynomial uses.
        r = Ring(("x", 1), ("y", 1))
        x = r.var("x")
        with pytest.raises(KeyError, match="nope"):
            x.substitute({"nope": 3})
        with pytest.raises(GradingError):
            x.substitute({"y": x**2})
        with pytest.raises(RingMismatchError):
            x.substitute({"y": Ring(("z", 1)).var("z")})

    def test_unnamed_variables_are_checked_only_when_used(self):
        # ``into`` drops a working ring's unused extra variables.
        big = Ring(("x", 1), ("u", 2))
        assert big.var("x").into(Ring(("x", 1))) == Ring(("x", 1)).var("x")
        with pytest.raises(GradingError):
            big.var("u").into(Ring(("x", 1)))

    def test_zero_image_allowed(self, lring):
        p = lring.parse("lambda2 + t^2")
        assert p.substitute({"lambda2": 0}) == lring.parse("t^2")

    def test_homomorphism_on_random_inputs(self, lring):
        rng = random.Random(7)
        images = {
            "lambda1": random_homogeneous(lring, 1, rng),
            "lambda2": random_homogeneous(lring, 2, rng),
            "t": random_homogeneous(lring, 1, rng),
        }
        for _ in range(25):
            p = random_homogeneous(lring, rng.randint(1, 3), rng)
            q = random_homogeneous(lring, rng.randint(1, 3), rng)
            assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)
            assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_term_by_term_reference(self, data):
        # Each variable is kept, renamed, sent to a random class or to zero,
        # in a larger target ring whose variables come in a drawn order.
        source = Ring(("x", 1), ("y", 1), ("z", 2))
        declared = (("x", 1), ("y", 1), ("z", 2), ("u", 1), ("w", 2))
        target = Ring(*data.draw(st.permutations(declared)))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        images = {}
        for var, weight in zip(source.names, source.weights):
            kind = data.draw(st.sampled_from(("keep", "rename", "class", "zero")))
            if kind == "rename":
                names = [name for name, degree in declared if degree == weight]
                images[var] = target.var(data.draw(st.sampled_from(names)))
            elif kind == "class":
                images[var] = random_homogeneous(target, weight, rng)
            elif kind == "zero":
                images[var] = 0
        p = source.zero()
        for d in data.draw(st.lists(st.integers(0, 4), max_size=3)):
            p = p + random_homogeneous(source, d, rng, max_terms=6)
        assert p.substitute(images, target=target) == reference_substitute(p, images, target)


@st.composite
def homogeneous_triple(draw):
    ring = Ring(("x", 1), ("y", 1), ("z", 2))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    degrees = draw(st.tuples(*[st.integers(min_value=0, max_value=3)] * 3))
    return [random_homogeneous(ring, d, rng, coeff_bound=10 ** 12) for d in degrees]


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(homogeneous_triple())
    def test_associative_commutative_distributive(self, triple):
        p, q, r = triple
        assert p * (q * r) == (p * q) * r
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=30, deadline=None)
    @given(homogeneous_triple())
    def test_grading_additive(self, triple):
        p, q, _ = triple
        dp, dq = p.weighted_degree(), q.weighted_degree()
        product = p * q
        if dp is None or dq is None:
            assert product == 0
        else:
            assert product.weighted_degree() in (None, dp + dq)


class TestCoefficients:
    @settings(max_examples=60, deadline=None)
    @given(
        homogeneous_triple(),
        st.lists(st.sampled_from(("x", "y", "z")), unique=True),
    )
    def test_split_reassembles(self, triple, names):
        p = triple[0] + triple[1] + triple[2]
        ring = p.ring
        idx = [ring.index(name) for name in names]
        split = p.coefficients(names)
        assert set(split) == {tuple(exps[i] for i in idx) for exps in p.term_map()}
        total = ring.zero()
        for key, coeff in split.items():
            assert all(exps[i] == 0 for exps in coeff.term_map() for i in idx)
            monomial = ring.one()
            for name, e in zip(names, key):
                monomial = monomial * ring.var(name) ** e
            total = total + coeff * monomial
        assert total == p


class TestSymmetrize:
    def test_newton_identity(self):
        ring = Ring(("e1", 1), ("e2", 2), ("a1", 1), ("a2", 1))
        a1, a2 = ring.var("a1"), ring.var("a2")
        e1, e2 = ring.var("e1"), ring.var("e2")
        assert symmetrize_to_elementary(
            a1 * a1 + a2 * a2, [(("a1", "a2"), (e1, e2))]
        ) == ring.parse("e1^2 - 2*e2")

    def test_twisted_cubic_euler_class(self):
        ring = Ring(("alpha1", 1), ("alpha2", 2), ("a1", 1), ("a2", 1))
        a1, a2 = ring.var("a1"), ring.var("a2")
        alpha1 = ring.var("alpha1")
        product = (
            (alpha1 - 3 * a1)
            * (alpha1 - 3 * a2)
            * (alpha1 - 2 * a1 - a2)
            * (alpha1 - a1 - 2 * a2)
        )
        chern = (alpha1, ring.var("alpha2"))
        out = symmetrize_to_elementary(product, [(("a1", "a2"), chern)])
        assert out == ring.parse("9*alpha2^2 - 2*alpha1^2*alpha2")

    def test_antisymmetric_rejected(self):
        ring = Ring(("e1", 1), ("e2", 2), ("a1", 1), ("a2", 1))
        with pytest.raises(NotSymmetricError) as err:
            symmetrize_to_elementary(
                ring.var("a1") - ring.var("a2"),
                [(("a1", "a2"), (ring.var("e1"), ring.var("e2")))],
            )
        assert err.value.orbit

    def test_round_trip_on_random_symmetric_inputs(self):
        ring = Ring(("e1", 1), ("e2", 2), ("c", 1), ("a1", 1), ("a2", 1))
        rng = random.Random(11)
        i1, i2 = ring.index("a1"), ring.index("a2")
        back = {
            "e1": ring.var("a1") + ring.var("a2"),
            "e2": ring.var("a1") * ring.var("a2"),
        }
        family = [(("a1", "a2"), (ring.var("e1"), ring.var("e2")))]
        for _ in range(20):
            raw = random_homogeneous(ring, rng.randint(1, 4), rng, max_terms=6)
            sym_terms = {}
            for exps, coeff in raw.term_map().items():
                swapped = list(exps)
                swapped[i1], swapped[i2] = swapped[i2], swapped[i1]
                sym_terms[exps] = sym_terms.get(exps, 0) + coeff
                sym_terms[tuple(swapped)] = sym_terms.get(tuple(swapped), 0) + coeff
            p = IntPolynomial(ring, sym_terms)
            out = symmetrize_to_elementary(p, family)
            assert all(
                exps[i1] == exps[i2] == 0 for exps in out.term_map()
            ), "roots must be eliminated"
            assert out.substitute(back) == p.substitute(back)


class TestChernSeriesQuotient:
    def test_dualizing_sheaf_quadric(self):
        ring = Ring(("c1omega", 1), ("lambda1", 1), ("lambda2", 2), ("S1", 2))
        c, l1, l2, s1 = (
            ring.var("c1omega"),
            ring.var("lambda1"),
            ring.var("lambda2"),
            ring.var("S1"),
        )
        out = chern_series_quotient([ring.one(), l1, l2], [ring.one(), c, s1], 2)
        assert out == ring.parse("c1omega^2 - c1omega*lambda1 + lambda2 - S1")

    def test_self_quotient(self):
        ring = Ring(("a", 1), ("b", 2))
        series = [ring.one(), ring.var("a"), ring.var("b")]
        assert chern_series_quotient(series, series, 2) == 0
        assert chern_series_quotient(series, series, 1) == 0

    def test_geometric_series(self):
        ring = Ring(("c1", 1),)
        c1 = ring.var("c1")
        out = chern_series_quotient([ring.one()], [ring.one(), c1], 3)
        assert out == -(c1 ** 3)

    def test_requires_unit_constant_term(self):
        ring = Ring(("c1", 1),)
        with pytest.raises(ValueError):
            chern_series_quotient([ring.const(2)], [ring.one()], 1)

    def test_multiplying_back(self):
        ring = Ring(("u", 1), ("v", 2))
        rng = random.Random(3)
        for _ in range(10):
            num = [ring.one()] + [random_homogeneous(ring, d, rng) for d in (1, 2, 3)]
            den = [ring.one()] + [random_homogeneous(ring, d, rng) for d in (1, 2, 3)]
            quotient = [chern_series_quotient(num, den, k) for k in range(4)]
            for k in range(4):
                acc = ring.zero()
                for i in range(k + 1):
                    d_part = den[i] if i < len(den) else ring.zero()
                    acc = acc + quotient[k - i] * d_part
                expected = num[k] if k < len(num) else ring.zero()
                assert acc == expected


_SRC = Path(__file__).resolve().parents[1] / "src" / "genus2chow"
# A second holder of a presentation or of a variable, or a read through one.
_FOLDED = re.compile(r"\bclass Ideal\b|\bVariableSpec\b|\.(?:variables|relations)\b")
# The two deleted converters (spelled so that a grep for them finds no test),
# and a dict comprehension over an enumeration of monomials: a column map.
_CONVERTERS = re.compile(r"\bshifted_(?:row)\b|\bpolynomial_(?:of)\b")
_COLUMN_MAP = re.compile(r"\{[^{}]*:[^{}]*\bfor\b[^{}]*\bin\s+enumerate\([^{}]*monomial")


class TestLatticeRows:
    """``Ring`` owns the monomial columns: ``IntPolynomial.row`` and
    ``Ring.from_row`` are inverse, and a shift is a product by a monomial."""

    def test_rows_round_trip_on_the_pipeline_rings(self, pipeline):
        for name, spec in pipeline.presentations.items():
            ring = spec.ring
            rng = random.Random(name)
            for d in range(9):
                for _ in range(4):
                    p = random_homogeneous(ring, d, rng, max_terms=5)
                    assert ring.from_row(d, p.row()) == p, (name, d, str(p))
                    shift = rng.choice(ring.monomials_of_degree(rng.randint(0, 3)))
                    assert p.row(shift) == (ring.polynomial({shift: 1}) * p).row(), (name, d)

    def test_zero_has_the_empty_row(self, lring):
        assert lring.zero().row() == {}
        assert lring.zero().row((1, 0, 2)) == {}
        assert lring.from_row(3, {}) == 0

    def test_inhomogeneous_row_raises(self, lring):
        p = lring.parse("lambda1 + lambda2 + t^3")
        with pytest.raises(InhomogeneousError):
            p.row()
        with pytest.raises(InhomogeneousError):
            p.row((1, 0, 0))

    def test_a_shift_is_one_nonnegative_int_per_variable(self):
        ring = Ring(("x", 1), ("y", 1))
        x = ring.var("x")
        assert x.row((1, 2)) == (ring.parse("x*y^2") * x).row()
        for shift in ((0, 0, 5), (-1, 0), (1,), (True, 0), (1.0, 0)):
            with pytest.raises(ValueError, match="bad shift"):
                x.row(shift)
        with pytest.raises(ValueError, match="bad shift"):
            ring.zero().row((0, -1))

    def test_columns_are_memoized_in_monomial_order(self, lring):
        for d in range(6):
            columns = lring.columns(d)
            assert lring.columns(d) is columns
            assert list(columns) == lring.monomials_of_degree(d)
            assert list(columns.values()) == list(range(len(columns)))

    def test_only_ring_maps_monomials_to_columns(self):
        for path in sorted(_SRC.glob("*.py")):
            text = path.read_text()
            assert not _CONVERTERS.search(text), path.name
            if path.name != "ring.py":
                assert not _COLUMN_MAP.search(text), path.name

    def test_one_object_per_ring_and_per_presentation(self):
        # A ring keeps its names and weights itself, and a RingSpec its
        # generators and lattices: nothing in the package reaches through
        # a second object for them.
        for path in sorted(_SRC.glob("*.py")):
            found = _FOLDED.search(path.read_text())
            assert not found, (path.name, found and found.group())
