"""Strong Groebner bases over ZZ: normal forms, membership, ideal equality."""

import random
from math import gcd, lcm
from operator import le

import pytest
from hypothesis import given, settings, strategies as st

import genus2chow.groebner as gb
from genus2chow import pipeline as pipeline_module
from genus2chow.groebner import RingSpec, ideal_equal, strong_groebner
from genus2chow.pipeline import Pipeline
from genus2chow.ring import InhomogeneousError, IntPolynomial, Ring, RingMismatchError

from helpers import (
    as_term_list,
    naive_product,
    normal_form_rings,
    random_homogeneous,
    reference_reduce,
)


@pytest.fixture
def bg_ring():
    return Ring(("beta1", 1), ("beta2", 2), ("gamma", 1))


@pytest.fixture
def bg_ideal(bg_ring):
    g, b1 = bg_ring.var("gamma"), bg_ring.var("beta1")
    return RingSpec(bg_ring, (2 * g, g * g + b1 * g))


class TestIdealValidation:
    def test_inhomogeneous_generator_rejected(self, bg_ring):
        with pytest.raises(InhomogeneousError):
            RingSpec(bg_ring, (bg_ring.parse("beta1 + beta2"),))

    def test_constant_generator_allowed(self, bg_ring):
        RingSpec(bg_ring, (bg_ring.const(2),))

    def test_inhomogeneous_basis_element_rejected(self, bg_ring):
        # A reduction row puts a lead's shifted tail in the columns of the
        # degree of the term it reduces.
        with pytest.raises(InhomogeneousError):
            gb.StrongGroebnerBasis(bg_ring, (bg_ring.parse("beta1 + beta2"),))

    def test_each_generator_is_checked_for_its_ring_first(self, bg_ring):
        other = Ring(("x", 1))
        mixed = bg_ring.parse("beta1 + beta2")
        with pytest.raises(RingMismatchError):
            RingSpec(bg_ring, (other.var("x"), mixed))
        with pytest.raises(InhomogeneousError):
            RingSpec(bg_ring, (mixed, other.var("x")))


class TestGeneratorDegrees:
    def test_degrees_are_the_generators_weighted_degrees(self, bg_ring):
        gens = tuple(map(bg_ring.parse, ("2*gamma", "0", "3", "beta2*gamma + beta1^3")))
        ideal = RingSpec(bg_ring, gens)
        assert ideal.degrees == tuple(g.weighted_degree() for g in gens) == (1, None, 0, 3)

    def test_lattices_read_the_kept_degrees(self, bg_ring, monkeypatch):
        ideal = RingSpec(bg_ring, map(bg_ring.parse, ("2*gamma", "gamma^2 + beta1*gamma", "0")))
        expected = [RingSpec(bg_ring, ideal.generators).lattice(d) for d in range(9)]

        def refuse(self):
            raise AssertionError("weighted_degree called")

        monkeypatch.setattr(IntPolynomial, "weighted_degree", refuse)
        assert [ideal.lattice(d) for d in range(9)] == expected


class TestStrongGroebner:
    def test_torsion_multiple_reduces(self, bg_ideal, bg_ring):
        basis = strong_groebner(bg_ideal)
        assert basis.normal_form(bg_ring.parse("24*beta1*gamma")) == 0

    def test_zero_ideal(self, bg_ring):
        basis = strong_groebner(RingSpec(bg_ring, ()))
        assert basis.elements == ()
        p = bg_ring.parse("beta1^2 - 7*beta2")
        assert basis.normal_form(p) == p

    def test_excision_implies_bundle_relation(self):
        ring = Ring(("alpha1", 1), ("alpha2", 2), ("t", 1))
        t, a1 = ring.var("t"), ring.var("alpha1")
        basis = strong_groebner(RingSpec(ring, (2 * t - 2 * a1, t * t - a1 * t)))
        relation = ring.parse("(t^2 - 2*alpha1*t + 4*alpha2)*(t - alpha1)")
        assert basis.normal_form(relation) == 0

    def test_gcd_combination_found(self):
        ring = Ring(("x", 1),)
        x = ring.var("x")
        basis = strong_groebner(RingSpec(ring, (4 * x, 6 * x)))
        assert basis.normal_form(2 * x) == 0
        assert [str(g) for g in basis.elements] == ["2*x"]

    def test_completed_closure(self, bg_ideal):
        basis = strong_groebner(bg_ideal)
        basis.verify_complete()


class TestNormalForm:
    def test_canonical_representative(self, bg_ideal, bg_ring):
        basis = strong_groebner(bg_ideal)
        g2 = bg_ring.parse("gamma^2")
        b1g = bg_ring.parse("beta1*gamma")
        assert basis.normal_form(g2) == basis.normal_form(b1g)

    def test_zero_ideal_identity(self, bg_ring):
        basis = strong_groebner(RingSpec(bg_ring, ()))
        p = bg_ring.parse("5*beta2 + beta1^2")
        assert basis.normal_form(p) == p

    def test_unique_under_generator_shuffles(self, bg_ring):
        rng = random.Random(17)
        gens = [
            bg_ring.parse("2*gamma"),
            bg_ring.parse("gamma^2 + beta1*gamma"),
            bg_ring.parse("24*beta1^2 - 48*beta2"),
            bg_ring.parse("24*beta1*beta2"),
        ]
        probes = [random_homogeneous(bg_ring, d, rng) for d in (2, 3, 4, 5) for _ in range(4)]
        reference = None
        for _ in range(6):
            rng.shuffle(gens)
            basis = strong_groebner(RingSpec(bg_ring, tuple(gens)))
            forms = [basis.normal_form(p) for p in probes]
            if reference is None:
                reference = forms
            assert forms == reference

    def test_idempotent(self, bg_ideal, bg_ring):
        basis = strong_groebner(bg_ideal)
        rng = random.Random(23)
        for _ in range(20):
            p = random_homogeneous(bg_ring, rng.randint(1, 5), rng)
            nf = basis.normal_form(p)
            assert basis.normal_form(nf) == nf
            assert basis.normal_form(p - nf) == 0


class TestMembership:
    def test_divisibility_failure(self):
        ring = Ring(("lambda1", 1), ("lambda2", 2))
        assert not RingSpec(ring, (ring.var("lambda2"),)).contains(ring.var("lambda1"))

    def test_membership_via_basis_object(self, bg_ideal, bg_ring):
        spec = RingSpec(bg_ring, bg_ideal.generators)
        assert spec.contains(bg_ring.parse("2*gamma*beta2"))


class TestIdealEqual:
    def test_sign_flip(self, bg_ring):
        I = RingSpec(bg_ring, (bg_ring.parse("2*gamma"), bg_ring.parse("gamma^2 + beta1*gamma")))
        J = RingSpec(bg_ring, (bg_ring.parse("2*gamma"), bg_ring.parse("gamma^2 - beta1*gamma")))
        assert ideal_equal(I, J)

    def test_strict_inclusion(self):
        ring = Ring(("lambda1", 1),)
        l1 = ring.var("lambda1")
        assert not ideal_equal(RingSpec(ring, (l1,)), RingSpec(ring, (l1 * l1,)))

    def test_reflexive_symmetric_shuffle_invariant(self, bg_ring):
        rng = random.Random(5)
        gens = [
            bg_ring.parse("2*gamma"),
            bg_ring.parse("gamma^2 + beta1*gamma"),
            bg_ring.parse("24*beta1^2 - 48*beta2"),
        ]
        I = RingSpec(bg_ring, gens)
        assert ideal_equal(I, I)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        J = RingSpec(bg_ring, shuffled)
        assert ideal_equal(I, J) and ideal_equal(J, I)

    def test_invariant_under_adding_combination(self, bg_ring):
        gens = (
            bg_ring.parse("2*gamma"),
            bg_ring.parse("gamma^2 + beta1*gamma"),
        )
        I = RingSpec(bg_ring, gens)
        combo = bg_ring.parse("beta1") * gens[0] + 3 * gens[1]
        assert ideal_equal(I, RingSpec(bg_ring, gens + (combo,)))

    def test_uses_both_cached_bases(self, bg_ring, monkeypatch):
        I = RingSpec(bg_ring, (bg_ring.parse("2*gamma"), bg_ring.parse("gamma^2 + beta1*gamma")))
        J = RingSpec(bg_ring, (bg_ring.parse("2*gamma"), bg_ring.parse("gamma^2 - beta1*gamma")))
        I.groebner, J.groebner

        def no_completion(ideal):
            raise AssertionError(f"completed {ideal} again")

        monkeypatch.setattr(gb, "strong_groebner", no_completion)
        assert ideal_equal(I, J)

    def test_ring_mismatch(self, bg_ring):
        other = Ring(("x", 1),)
        with pytest.raises(RingMismatchError):
            ideal_equal(RingSpec(bg_ring, ()), RingSpec(other, ()))


def _mixed_weight_ideal():
    ring = Ring(("v0", 1), ("v1", 2), ("v2", 1))
    gens = (
        ring.parse("-27*v0*v1 + 5*v1*v2 - 25*v0*v2^2 - 32*v2^3"),
        ring.parse("57*v0^4 - 30*v0^2*v2^2 - 16*v1*v2^2 - 33*v2^4"),
        ring.parse("4*v0^3 + 33*v0*v2^2 + 19*v2^3"),
    )
    return RingSpec(ring, gens)


class TestColumnCap:
    def test_mixed_weight_ideal_closes(self):
        # Mixed weights and coprime leading coefficients: the basis closes
        # with entries of a few dozen bits.
        ideal = _mixed_weight_ideal()
        basis = strong_groebner(ideal)
        basis.verify_complete()
        assert len(basis.elements) == 16
        assert max(g.weighted_degree() for g in basis.elements) == 9
        assert all(abs(c).bit_length() <= 64 for g in basis.elements for c in g.term_map().values())
        assert all(basis.contains(g) for g in ideal.generators)

    def test_cap_below_the_closing_degree_raises(self, monkeypatch):
        # Degrees 0..8 have 95 columns in all, degree 9 has 30 more.
        monkeypatch.setattr(gb, "_MAX_COLUMNS", 95)
        with pytest.raises(RuntimeError, match="column cap 95"):
            strong_groebner(_mixed_weight_ideal())

    def test_generator_above_the_cap_raises(self, monkeypatch):
        ring = Ring(("x", 1),)
        monkeypatch.setattr(gb, "_MAX_COLUMNS", 3)
        with pytest.raises(RuntimeError, match="column cap 3"):
            strong_groebner(RingSpec(ring, (ring.parse("2*x^4"),)))

    def test_forced_non_closure_raises_at_the_cap(self, pipeline, monkeypatch):
        # Over five variables the columns grow like d^4, so a cap on the
        # degree alone (24) lets such a run take about a minute; the column
        # cap is reached in a fraction of a second.
        ideal = pipeline.alpha_ambient
        assert ideal.ring.nvars == 5
        monkeypatch.setattr(gb, "_unclosed_pair", lambda *args, **kwargs: ("f", "g"))
        with pytest.raises(RuntimeError, match=f"column cap {gb._MAX_COLUMNS} "):
            strong_groebner(ideal)


class TestRandomIdeals:
    def test_random_homogeneous_ideals_reduce_their_members(self):
        ring = Ring(("x", 1), ("y", 1), ("z", 2))
        rng = random.Random(99)
        for _ in range(20):
            gens = [
                random_homogeneous(ring, rng.randint(1, 3), rng, coeff_bound=20)
                for _ in range(rng.randint(2, 3))
            ]
            gens = [g for g in gens if g]
            if not gens:
                continue
            basis = strong_groebner(RingSpec(ring, tuple(gens)))
            basis.verify_complete()
            for _ in range(8):
                member = ring.zero()
                for g in gens:
                    d = rng.randint(0, 2)
                    member = member + random_homogeneous(
                        ring, d, rng, coeff_bound=9
                    ) * g
                assert basis.normal_form(member) == 0

    def test_seed_scan_gives_reduced_closed_bases(self):
        # The draw above, over seeds 0..39, and an ideal on which pair-by-pair
        # completion ran for minutes, its coefficients reaching 31,034 bits.
        from genus2chow.graded import membership_matches_normal_form

        ring = Ring(("x", 1), ("y", 1), ("z", 2))
        texts = (
            "3*x^2 + 18*x*y - 10*y^2 - 18*z",
            "19*x*y^2 + 10*x*z - y*z",
            "7*x^3 + 11*x^2*y + 13*x*y^2 - 11*x*z",
        )
        drawn = [[ring.parse(text) for text in texts]]
        for seed in range(40):
            rng = random.Random(seed)
            for _ in range(20):
                gens = [
                    random_homogeneous(ring, rng.randint(1, 3), rng, coeff_bound=20)
                    for _ in range(rng.randint(2, 3))
                ]
                drawn.append([g for g in gens if g])
        for gens in drawn:
            spec = RingSpec(ring, gens)
            basis = spec.groebner
            basis.verify_complete()
            assert all(basis.contains(g) for g in gens)
            leads = [g.leading_term() for g in basis.elements]
            assert all(c > 0 for _, c in leads)
            for i, (e, c) in enumerate(leads):
                for j, (f, k) in enumerate(leads):
                    assert i == j or not (all(map(le, f, e)) and c % k == 0)
            for g in basis.elements:
                tail = g - ring.polynomial(dict([g.leading_term()]))
                assert basis.normal_form(tail) == tail
            assert all(membership_matches_normal_form(spec, d) for d in range(5))

    def test_random_ideals_agree_with_lattice_membership(self):
        from genus2chow.graded import membership_matches_normal_form

        ring = Ring(("x", 1), ("y", 1))
        rng = random.Random(7)
        for _ in range(10):
            gens = tuple(
                random_homogeneous(ring, rng.randint(1, 3), rng, coeff_bound=12)
                for _ in range(2)
            )
            spec = RingSpec(ring, [g for g in gens if g])
            for d in range(0, 6):
                assert membership_matches_normal_form(spec, d)


class TestLeadOrder:
    def test_shuffled_basis_gives_same_normal_forms(self, pipeline):
        """The reducer of each term is fixed by the basis's lead table, not
        by the order in which its elements are given."""
        rng = random.Random(8)
        for spec in pipeline.presentations.values():
            ring = spec.ring
            elements = list(spec.groebner.elements)
            rng.shuffle(elements)
            shuffled = gb.StrongGroebnerBasis(ring, elements)
            for d in range(7):
                for exps in ring.monomials_of_degree(d):
                    mono = ring.polynomial({exps: 1})
                    assert shuffled.normal_form(mono) == spec.normal_form(mono)


class TestReferenceReducer:
    """``normal_form`` against a plain division that subtracts whole basis
    elements."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(
            ["classifying", "boundary", "twist-quotient", "open-stratum", "total", "bielliptic"]
        ),
        st.integers(0, 8),
        st.randoms(use_true_random=False),
    )
    def test_pipeline_presentations(self, pipeline, name, degree, rng):
        spec = pipeline.presentations[name]
        basis = spec.groebner
        p = random_homogeneous(spec.ring, degree, rng, max_terms=8, coeff_bound=50)
        assert basis.normal_form(p) == reference_reduce(p, basis.elements)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_ideals(self, rng):
        # Division is defined by any lead table, so the random generators
        # serve as the basis uncompleted: the reducer is tested apart from
        # completion, which the presentations above cover.
        ring = Ring(("x", 1), ("y", 1), ("z", 2))
        gens = [
            random_homogeneous(ring, rng.randint(1, 3), rng, coeff_bound=20)
            for _ in range(rng.randint(1, 4))
        ]
        basis = gb.StrongGroebnerBasis(ring, [g for g in gens if g])
        for _ in range(5):
            p = random_homogeneous(ring, rng.randint(0, 5), rng, max_terms=6, coeff_bound=500)
            assert basis.normal_form(p) == reference_reduce(p, basis.elements)


def _mixed_degree(ring, degrees, rng, **kwargs):
    """A sum of random homogeneous polynomials, one of each given degree."""
    p = ring.zero()
    for d in degrees:
        p = p + random_homogeneous(ring, d, rng, **kwargs)
    return p


class TestReducerInputs:
    """Inputs the pipeline never sends, against plain division: the reducer
    splits its input by degree and scans every column of each degree.
    ``TestReductionRows`` sends mixed degrees to uncompleted bases."""

    def test_mixed_degree_polynomials(self, pipeline):
        rng = random.Random(61)
        for spec in pipeline.presentations.values():
            basis = spec.groebner
            for _ in range(15):
                degrees = rng.sample(range(11), rng.randint(2, 4))
                p = _mixed_degree(spec.ring, degrees, rng, max_terms=5, coeff_bound=50)
                assert len({spec.ring.monomial_degree(m) for m in p.term_map()}) > 1
                assert basis.normal_form(p) == reference_reduce(p, basis.elements)

    def test_sparse_inputs_at_degree_40(self, pipeline):
        # The test-family ring has 6,391 monomials of degree 40.
        spec = pipeline.presentations["bielliptic"]
        ring = spec.ring
        assert len(ring.columns(40)) == 6391
        rng = random.Random(67)
        basis = gb.StrongGroebnerBasis(ring, spec.groebner.elements)
        probes = [random_homogeneous(ring, 40, rng, max_terms=3, coeff_bound=50) for _ in range(4)]
        probes.append(_mixed_degree(ring, (40, 39, 7), rng, max_terms=2, coeff_bound=50))
        for p in probes:
            assert basis.normal_form(p) == reference_reduce(p, basis.elements)


def _monomials(ring, degrees):
    return [ring.polynomial({exps: 1}) for d in degrees for exps in ring.monomials_of_degree(d)]


class TestReductionRows:
    """The table of reduction rows a basis keeps changes no normal form."""

    @staticmethod
    def assert_rows_change_nothing(basis, probes):
        warm_up = _monomials(basis.ring, range(9))
        for mono in warm_up:
            basis.normal_form(mono)
        # One entry per distinct monomial reduced, counted across the
        # degrees' tables; reduction keeps degrees, and a key is a column.
        assert sum(map(len, basis._rows.values())) <= len(warm_up)
        assert set(basis._rows) <= set(range(9))
        for d, table in basis._rows.items():
            assert set(table) <= set(range(len(basis.ring.columns(d))))
        fresh = gb.StrongGroebnerBasis(basis.ring, basis.elements)
        for p in warm_up + probes:
            nf = basis.normal_form(p)
            assert nf == fresh.normal_form(p)
            assert nf == reference_reduce(p, basis.elements)
            assert nf == gb._reduce(p, gb.StrongGroebnerBasis(basis.ring, basis.elements))

    def test_pipeline_presentations(self, pipeline):
        rng = random.Random(41)
        for spec in pipeline.presentations.values():
            basis = gb.StrongGroebnerBasis(spec.ring, spec.groebner.elements)
            probes = [
                random_homogeneous(spec.ring, rng.randint(0, 10), rng, max_terms=8, coeff_bound=50)
                for _ in range(25)
            ]
            self.assert_rows_change_nothing(basis, probes)

    def test_uncompleted_random_generators(self):
        # As in TestReferenceReducer.test_random_ideals, the generators serve
        # as the basis uncompleted; some sets get a degree-0 constant.  The
        # probes mix up to three degrees.
        ring = Ring(("x", 1), ("y", 1), ("z", 2))
        rng = random.Random(43)
        seen = set()
        for _ in range(30):
            gens = [
                random_homogeneous(ring, rng.randint(1, 3), rng, coeff_bound=20)
                for _ in range(rng.randint(1, 4))
            ]
            if rng.random() < 0.3:
                gens.append(ring.const(rng.choice((-6, -4, 3, 10))))
            basis = gb.StrongGroebnerBasis(ring, [g for g in gens if g])
            for exps, coeff in (g.leading_term() for g in basis.elements):
                if coeff < 0:
                    seen.add("negative")
                if abs(coeff) > 1:
                    seen.add("non-unit")
                if not any(exps):
                    seen.add("constant")
            probes = [
                _mixed_degree(
                    ring, rng.sample(range(9), rng.randint(1, 3)), rng, max_terms=6, coeff_bound=500
                )
                for _ in range(5)
            ]
            self.assert_rows_change_nothing(basis, probes)
        assert seen == {"negative", "non-unit", "constant"}

    def test_bases_share_no_table(self, bg_ring):
        a = gb.StrongGroebnerBasis(bg_ring, (bg_ring.parse("2*gamma"),))
        b = gb.StrongGroebnerBasis(bg_ring, (bg_ring.parse("gamma^2 + beta1*gamma"),))
        p = bg_ring.parse("3*gamma^3 + 5*beta1*gamma^2 - beta2*gamma")
        a.normal_form(p)
        assert set(a._rows) == {3} and not b._rows
        b.normal_form(p)
        assert set(b._rows) == {3}
        assert a._rows is not b._rows and a._rows[3] is not b._rows[3]
        assert a._rows[3] != b._rows[3]

    def test_reducing_twice_does_not_grow_the_table(self, pipeline):
        basis = pipeline.presentations["total"].groebner
        rng = random.Random(47)
        p = random_homogeneous(basis.ring, 7, rng, max_terms=8, coeff_bound=50)
        first = basis.normal_form(p)
        size = sum(map(len, basis._rows.values()))
        assert basis.normal_form(p) == first
        assert sum(map(len, basis._rows.values())) == size


def _shifted_terms(p, lcm_exps):
    """The term map of p times the monomial that takes its lead to lcm_exps."""
    shift = tuple(a - b for a, b in zip(lcm_exps, p.leading_term()[0]))
    return naive_product([(1, shift)], as_term_list(p))


class TestCriticalCombinations:
    """``_critical_combinations`` against term maps built by schoolbook
    multiplication, on every pair of pipeline basis elements and on random
    homogeneous pairs.  The combinations are lattice rows over the columns
    of the lcm's degree."""

    @staticmethod
    def check_pair(f, g):
        (fe, fc), (ge, gc) = f.leading_term(), g.leading_term()
        lcm_exps = tuple(map(max, fe, ge))
        ring, d = f.ring, f.ring.monomial_degree(lcm_exps)
        fs, gs = _shifted_terms(f, lcm_exps), _shifted_terms(g, lcm_exps)
        rows = list(gb._critical_combinations(f, g))
        for row in rows:
            assert type(row) is dict and 0 not in row.values()
            assert set(row) <= set(range(len(ring.columns(d))))
        combinations = [ring.from_row(d, row).term_map() for row in rows]
        has_gcd = bool(fc % gc and gc % fc)
        assert len(combinations) == 1 + has_gcd
        c = lcm(fc, gc)
        s_poly = combinations[-1]
        expected = {e: c // fc * fs.get(e, 0) - c // gc * gs.get(e, 0) for e in fs | gs.keys()}
        assert s_poly == {e: v for e, v in expected.items() if v}
        assert lcm_exps not in s_poly
        if has_gcd:
            gcd_poly = combinations[0]
            assert gcd_poly[lcm_exps] == gcd(fc, gc)
            assert gcd_poly.keys() <= fs.keys() | gs.keys()
        return has_gcd

    def test_pipeline_basis_pairs(self, pipeline):
        for spec in pipeline.presentations.values():
            elements = spec.groebner.elements
            for f in elements:
                for g in elements:
                    if f is not g:
                        self.check_pair(f, g)

    def test_random_homogeneous_pairs(self):
        ring = Ring(("x", 1), ("y", 1), ("z", 2))
        rng = random.Random(53)
        seen = set()
        for _ in range(300):
            f, g = (
                random_homogeneous(ring, rng.randint(0, 4), rng, max_terms=5, coeff_bound=30)
                for _ in range(2)
            )
            if f and g:
                seen.add(self.check_pair(f, g))
        assert seen == {False, True}

    def test_no_polynomial_is_multiplied(self, pipeline, monkeypatch):
        elements = pipeline.presentations["total"].groebner.elements

        def refuse(*args):
            raise AssertionError("IntPolynomial.__mul__ called")

        monkeypatch.setattr(IntPolynomial, "__mul__", refuse)
        gb.StrongGroebnerBasis(elements[0].ring, elements).verify_complete()


class TestClosureCertificate:
    """Completion stops at the first degree d above which every pair closes;
    the certificate then reduces the pairs at or below d, so a fault in any
    pair's combination is caught."""

    @staticmethod
    def closing_degree(ideal, monkeypatch):
        closed = []
        unclosed_pair = gb._unclosed_pair

        def recording(*args, **kwargs):
            pair = unclosed_pair(*args, **kwargs)
            if pair is None and "above" in kwargs:
                closed.append(kwargs["above"])
            return pair

        with monkeypatch.context() as patch:
            patch.setattr(gb, "_unclosed_pair", recording)
            strong_groebner(ideal)
        return closed[0]

    @staticmethod
    def inject(monkeypatch, ideal, faulty_degree):
        # The fault adds 1 to a combination's row, on the last column of its
        # degree that no unit lead of the completed basis divides.  The
        # columns before it reduce as without the fault, so the entry the
        # scan meets there is one more than a multiple of that column's lead
        # coefficient (at least 2), or 1 where no lead divides it: the
        # residue keeps a nonzero entry.
        ring = ideal.ring
        basis = strong_groebner(RingSpec(ring, ideal.generators))
        leads = [g.leading_term() for g in basis.elements]
        assert all(c > 0 for _, c in leads)
        critical_combinations = gb._critical_combinations

        def with_fault(f, g):
            d = ring.monomial_degree(tuple(map(max, f.leading_term()[0], g.leading_term()[0])))
            for row in critical_combinations(f, g):
                if faulty_degree(d):
                    column = max(
                        j
                        for j, mono in enumerate(ring.monomials_of_degree(d))
                        if not any(c == 1 and all(map(le, e, mono)) for e, c in leads)
                    )
                    row[column] = row.get(column, 0) + 1
                    if not row[column]:
                        del row[column]
                yield row

        monkeypatch.setattr(gb, "_critical_combinations", with_fault)

    def test_completion_returns_the_basis_it_tested(self, pipeline, monkeypatch):
        unclosed_pair = gb._unclosed_pair
        for spec in pipeline.presentations.values():
            calls = []

            def recording(*args, **kwargs):
                pair = unclosed_pair(*args, **kwargs)
                calls.append((args[0], kwargs, pair))
                return pair

            with monkeypatch.context() as patch:
                patch.setattr(gb, "_unclosed_pair", recording)
                basis = strong_groebner(spec)
            closing = [b for b, kwargs, pair in calls if "above" in kwargs and pair is None]
            certified = [b for b, kwargs, _ in calls if "upto" in kwargs]
            assert len(closing) == len(certified) == 1
            assert closing[0] is basis and certified[0] is basis

    def test_fault_at_or_below_the_closing_degree_raises(self, pipeline, monkeypatch):
        ideal = pipeline.presentations["total"]
        d = self.closing_degree(ideal, monkeypatch)
        self.inject(monkeypatch, ideal, lambda degree: degree <= d)
        with pytest.raises(AssertionError, match="completed basis not closed"):
            strong_groebner(ideal)

    def test_fault_above_the_closing_degree_raises(self, pipeline, monkeypatch):
        ideal = pipeline.presentations["total"]
        d = self.closing_degree(ideal, monkeypatch)
        # The loop goes on past d until no pair lies above it, and the
        # certificate then meets the faults.
        self.inject(monkeypatch, ideal, lambda degree: degree > d)
        with pytest.raises(AssertionError, match="completed basis not closed"):
            strong_groebner(ideal)


class TestRingSpec:
    def test_build_and_normal_form(self):
        spec = RingSpec.build(
            (("beta1", 1), ("beta2", 2), ("gamma", 1)),
            ("2*gamma", "gamma^2 + beta1*gamma"),
        )
        assert spec.contains(spec.parse("24*beta1*gamma"))
        assert not spec.contains(spec.parse("gamma"))

    def test_generator_over_another_ring_rejected(self, bg_ring):
        other = Ring(("x", 1),)
        with pytest.raises(RingMismatchError):
            RingSpec(bg_ring, (bg_ring.var("gamma"), other.var("x")))

    def test_inhomogeneous_generator_rejected(self, bg_ring):
        with pytest.raises(InhomogeneousError):
            RingSpec(bg_ring, (bg_ring.parse("beta1^2 + beta2 + gamma"),))

    def test_equal_by_ring_and_generators_in_order(self, bg_ring):
        gens = tuple(map(bg_ring.parse, ("2*gamma", "gamma^2 + beta1*gamma")))
        a, b = RingSpec(bg_ring, gens), RingSpec(Ring(*zip(bg_ring.names, bg_ring.weights)), gens)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != RingSpec(bg_ring, gens[::-1])
        assert a != RingSpec(bg_ring, (gens[0], 3 * gens[1]))
        assert a != RingSpec(bg_ring, gens[:1]) and a != gens

    def test_same_ideal(self):
        a = RingSpec.build((("x", 1),), ("2*x",))
        b = RingSpec.build((("x", 1),), ("2*x", "4*x"))
        assert ideal_equal(a, b)


def _member(spec, d, rng):
    """A seeded degree-d element of the ideal: a combination of the
    generators of degree at most d with random homogeneous cofactors."""
    p = spec.ring.zero()
    for g, e in zip(spec.generators, spec.degrees):
        if e is not None and e <= d:
            p = p + random_homogeneous(spec.ring, d - e, rng, max_terms=3, coeff_bound=20) * g
    return p


def _membership_probes(spec, rng, degrees=range(8)):
    """Seeded polynomials of both answers: in each degree a member, a member
    plus one term, a random polynomial and a multiple of a monomial by 2 or
    24; then mixed-degree sums, zero and constants."""
    ring, probes = spec.ring, []
    for d in degrees:
        member = _member(spec, d, rng)
        monomial = ring.polynomial({rng.choice(ring.monomials_of_degree(d)): 1})
        probes += [
            member,
            member + rng.choice((1, 2, 3)) * monomial,
            random_homogeneous(ring, d, rng, max_terms=4, coeff_bound=50),
            rng.choice((2, 24)) * monomial,
        ]
    for _ in range(6):
        d, e = rng.sample(list(degrees), 2)
        probes.append(_member(spec, d, rng) + _member(spec, e, rng))
        probes.append(_member(spec, d, rng) + random_homogeneous(ring, e, rng, coeff_bound=50))
    return probes + [ring.zero(), ring.const(1), ring.const(2), ring.const(-4)]


class TestLatticeMembership:
    """``RingSpec.contains`` reads the kept lattices I_d, not a basis: it
    answers as the completed basis does, needs no completion, and a fault in
    a stored basis leaves it unchanged."""

    def test_lattices_answer_as_the_basis(self, pipeline):
        for name, spec in normal_form_rings(pipeline).items():
            rng = random.Random(name)
            answers = []
            for p in _membership_probes(spec, rng):
                answer = spec.contains(p)
                assert answer == spec.groebner.contains(p), (name, str(p))
                answers.append(answer)
            assert 0 < sum(answers) < len(answers), name

    def test_another_rings_polynomial_is_rejected(self, pipeline):
        other = Ring(("x", 1),)
        for spec in normal_form_rings(pipeline).values():
            for p in (other.var("x"), other.zero()):
                with pytest.raises(RingMismatchError):
                    spec.contains(p)

    def test_pipeline_answers_need_no_completion(self, monkeypatch):
        # Every ideal comparison and membership test of a run, replayed on
        # fresh presentations that cannot complete a basis, answers alike.
        comparisons, memberships = [], []
        real_equal, real_contains = gb.ideal_equal, RingSpec.contains

        def recording_equal(a, b):
            comparisons.append((a, b))
            return real_equal(a, b)

        def recording_contains(spec, p):
            memberships.append((spec, p, real_contains(spec, p)))
            return memberships[-1][2]

        monkeypatch.setattr(pipeline_module, "ideal_equal", recording_equal)
        monkeypatch.setattr(RingSpec, "contains", recording_contains)
        assert Pipeline(max_degree=10).run().overall == "pass"
        monkeypatch.undo()

        def refuse(spec):
            raise AssertionError("Groebner basis completed")

        monkeypatch.setattr(gb, "strong_groebner", refuse)
        fresh = {}
        for spec in {spec for pair in comparisons for spec in pair} | {m[0] for m in memberships}:
            fresh[spec] = RingSpec(spec.ring, spec.generators)
        assert len(comparisons) == 5
        for a, b in comparisons:
            assert ideal_equal(fresh[a], fresh[b])
        assert len(memberships) == 80
        for spec, p, answer in memberships:
            assert fresh[spec].contains(p) == answer, str(p)
        assert max(d for _, p, _ in memberships for d in p.rows()) <= 7

    def test_an_enlarged_basis_changes_normal_forms_not_membership(self, pipeline):
        # No monomial of degree 8 or less lies in a pipeline ideal, so the
        # first variable is outside each; a basis that holds it reduces it
        # to zero, but membership never reads that basis.
        for name, spec in pipeline.presentations.items():
            ring = spec.ring
            outside = ring.var(ring.names[0])
            enlarged = RingSpec(ring, spec.generators)
            enlarged.__dict__["groebner"] = gb.StrongGroebnerBasis(
                ring, (*spec.groebner.elements, outside)
            )
            assert spec.normal_form(outside) == outside and enlarged.normal_form(outside) == 0
            assert not enlarged.contains(outside), name
            for p in _membership_probes(spec, random.Random(name), degrees=range(6)):
                assert enlarged.contains(p) == spec.contains(p), (name, str(p))
