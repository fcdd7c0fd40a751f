"""Graded pieces as abelian groups, kernels of multiplication, enumeration."""

import dataclasses
import math
import random
from operator import le

import pytest
from hypothesis import example, given, settings, strategies as st

from genus2chow import graded, groebner as gb, intlinalg as la
from genus2chow.graded import (
    InfiniteKernelError,
    _kernel_lattice,
    _lead_gcds,
    enumerate_kernel_elements,
    graded_piece,
    membership_matches_normal_form,
    multiplication_kernel,
)
from genus2chow.groebner import RingSpec, StrongGroebnerBasis, _reduce_row
from genus2chow.pipeline import _ORACLE_DEGREE, Pipeline
from genus2chow.ring import Ring, RingMismatchError

from helpers import (
    matvec_left,
    random_homogeneous,
    reference_kernel_elements,
    reference_kernel_lattice,
    relation_rows,
    sparse,
)


def row_sets(max_dim=5, bound=20):
    """An n and up to 6 rows of length n; with a flag set, the last row is a
    combination of the others, so the set is rank-deficient."""
    return st.integers(1, max_dim).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
                max_size=6,
            ),
            st.booleans(),
        )
    )


def quotient_cases(max_dim=5, bound=12):
    """An n, up to 5 rows of length n and a probe: an integer combination of
    the rows, plus an offset of small entries when a flag is set."""
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n), max_size=5
        ).flatmap(
            lambda rows: st.tuples(
                st.just(n),
                st.just(rows),
                st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)),
                st.lists(st.integers(-1, 1), min_size=n, max_size=n),
                st.booleans(),
            )
        )
    )


def _probe(case):
    n, rows, coeffs, offset, offset_on = case
    probe = matvec_left(coeffs, rows) if rows else [0] * n
    return [x + y for x, y in zip(probe, offset)] if offset_on else probe


@pytest.fixture
def bg_spec():
    return RingSpec.build(
        (("beta1", 1), ("beta2", 2), ("gamma", 1)),
        ("2*gamma", "gamma^2 + beta1*gamma"),
    )


@pytest.fixture
def delta1_spec():
    return RingSpec.build(
        (("lambda1", 1), ("lambda2", 2), ("gamma", 1)),
        (
            "2*gamma",
            "gamma^2 + lambda1*gamma",
            "24*lambda1^2 - 48*lambda2",
            "24*lambda1*lambda2",
        ),
    )


@pytest.fixture
def open_spec():
    return RingSpec.build(
        (("lambda1", 1), ("lambda2", 2)),
        ("24*lambda1^2 - 48*lambda2", "20*lambda1*lambda2"),
    )


def _random_spec(rng: random.Random, constant: bool, zero: bool) -> RingSpec:
    """One to three variables of weight 1 or 2 and one to three random
    generators of degree 1 to 3; with the flags, an integer constant (as a
    mod-p presentation has) and the zero polynomial join them."""
    weights = [rng.choice((1, 2)) for _ in range(rng.randint(1, 3))]
    ring = Ring(*((f"x{i}", w) for i, w in enumerate(weights)))
    gens = [
        random_homogeneous(ring, rng.randint(1, 3), rng, max_terms=3, coeff_bound=6)
        for _ in range(rng.randint(1, 3))
    ]
    if constant:
        gens.append(rng.choice((2, 3, 4)) * ring.one())
    if zero:
        gens.insert(rng.randint(0, len(gens)), ring.zero())
    return RingSpec(ring, gens)


_PRESENTATIONS = (
    "classifying", "boundary", "twist-quotient", "open-stratum", "total", "bielliptic"
)


class TestRelationLattice:
    """``RingSpec.lattice`` builds I_d from the bases below it; the lattice of
    every degree-d multiple of every generator is the reference."""

    @pytest.mark.parametrize("name", _PRESENTATIONS)
    def test_pipeline_presentations(self, pipeline, name):
        spec = pipeline.presentations[name]
        for d in range(13):
            monomials, rows = relation_rows(spec, d)
            assert spec.lattice(d) == la.lattice_basis(rows, len(monomials)), d

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
    @example(random.Random(0), True, True)
    def test_random_presentations(self, rng, constant, zero):
        spec = _random_spec(rng, constant, zero)
        for d in range(7):
            monomials, rows = relation_rows(spec, d)
            assert spec.lattice(d) == la.lattice_basis(rows, len(monomials)), d

    def test_negative_degree_is_empty(self, bg_spec):
        assert bg_spec.lattice(-1) == []

    def test_each_degree_is_eliminated_once(self, bg_spec, monkeypatch):
        calls = []
        real = la.lattice_basis

        def counted(rows, ncols):
            calls.append(ncols)
            return real(rows, ncols)

        closed = []
        unclosed_pair = gb._unclosed_pair

        def recording(*args, **kwargs):
            pair = unclosed_pair(*args, **kwargs)
            if pair is None and "above" in kwargs:
                closed.append(kwargs["above"])
            return pair

        monkeypatch.setattr(la, "lattice_basis", counted)
        monkeypatch.setattr(gb, "_unclosed_pair", recording)
        sizes = [len(bg_spec.ring.monomials_of_degree(d)) for d in range(7)]
        # Completion eliminates each degree up to its closing degree, and
        # the graded pieces there read the bases it left on the spec.
        bg_spec.groebner
        closing = closed[0]
        assert closing < 6
        assert calls == sizes[: closing + 1]
        assert len(bg_spec._lattices) == closing + 1
        for d in range(closing + 1):
            graded_piece(bg_spec, d)
        assert calls == sizes[: closing + 1]
        bg_spec.lattice(6)
        bg_spec.lattice(4)
        graded_piece(bg_spec, 6)
        assert calls == sizes


class TestOneRowFormat:
    """A lattice row is one thing from ``RingSpec.lattice`` through completion,
    kernels and enumeration: a {column: entry} dict with no zero entries,
    whose least column holds its pivot.  Nothing on the way writes a row out
    dense."""

    def test_rows_stay_sparse(self, monkeypatch):
        calls = []
        real = la._dense

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(la, "_dense", counted)
        fresh = Pipeline(max_degree=12)
        for name in _PRESENTATIONS:
            spec = fresh.presentations[name]
            for d in range(13):
                basis = spec.lattice(d)
                pivots = []
                for row in basis:
                    assert type(row) is dict and row and 0 not in row.values(), (name, d)
                    c = min(row)
                    assert row[c] > 0
                    assert all(0 <= above.get(c, 0) < row[c] for above in basis[: len(pivots)])
                    pivots.append(c)
                assert all(a < b for a, b in zip(pivots, pivots[1:])), (name, d)
            spec.groebner
        fresh.twist_kernels
        spec = fresh.delta1_ring
        assert len(enumerate_kernel_elements(spec, spec.parse("gamma - lambda1"), 3)) == 3
        assert calls == []


def _linear_spec(n, rows):
    """Over n variables of weight 1, the presentation whose degree-1
    relation lattice is spanned by the rows."""
    ring = Ring(*((f"x{i}", 1) for i in range(n)))
    return RingSpec(ring, [ring.from_row(1, sparse(row)) for row in rows])


class TestSmithQuotient:
    """A graded piece clears the unit-pivot columns and takes the Smith form
    of the other rows on the other columns; on a degree-1 piece, whose
    lattice is spanned by the rows, it must read as the rows' own quotient."""

    @settings(max_examples=80, deadline=None)
    @given(row_sets())
    @example((3, [], False))
    def test_matches_smith_form_of_raw_rows(self, case):
        n, rows, dependent = case
        if dependent and len(rows) >= 2:
            rows = rows + [[2 * x - y for x, y in zip(rows[0], rows[1])]]
        spec = _linear_spec(n, rows)
        assert spec.lattice(1) == la.lattice_basis(list(map(sparse, rows)), n)
        piece = graded_piece(spec, 1)
        raw = la.smith_normal_form(rows, ncols=n).diagonal
        raw = raw + [0] * (n - len(raw))
        assert len(piece.units) + len(piece.rest) == n
        assert len(piece.diagonal) == len(piece.V) == len(piece.rest)
        assert piece.free_rank == raw.count(0)
        assert list(piece.torsion_invariants) == [d for d in raw if d >= 2]
        assert not piece.rest or abs(la.determinant_expansion(piece.V)) == 1
        # V' is a basis change of the cleared columns in which the rows lie
        # in the lattice spanned by the diagonal.
        for row in rows:
            assert piece.is_zero(spec.ring.from_row(1, sparse(row)))

    @settings(max_examples=120, deadline=None)
    @given(quotient_cases())
    # All pivots units: the rows span ZZ^2.
    @example((2, [[1, 2], [3, 7]], [1, -1], [1, 0], True))
    # No unit pivots: diag(2, 3), probed off and on the lattice.
    @example((2, [[2, 0], [0, 3]], [1, 1], [1, 0], True))
    @example((2, [[2, 0], [0, 3]], [2, -1], [0, 0], False))
    # A unit pivot in column 0, a pivot 4 in column 2, free columns 1 and 3.
    @example((4, [[1, 3, 0, 2], [0, 0, 4, 6]], [2, 1], [0, 1, 0, 0], True))
    @example((4, [[1, 3, 0, 2], [0, 0, 4, 6]], [-1, 2], [0, 0, 1, 0], True))
    @example((4, [[1, 3, 0, 2], [0, 0, 4, 6]], [3, -1], [0, 0, 0, 0], False))
    def test_vanishing_coordinates_mean_membership(self, case):
        """The converse: a probe's coordinates vanish modulo the diagonal
        exactly when it lies in the lattice of the rows."""
        n, rows = case[0], case[1]
        probe = _probe(case)
        spec = _linear_spec(n, rows)
        vanishes = graded_piece(spec, 1).is_zero(spec.ring.from_row(1, sparse(probe)))
        basis = la.lattice_basis(list(map(sparse, rows)), n)
        member = la.lattice_coordinates(basis, sparse(probe)) is not None
        assert vanishes == member


class TestBlockSmithForm:
    """``graded_piece`` takes the Smith form of the non-unit-pivot rows of the
    Hermite basis, on the columns without a unit pivot, and certifies it."""

    def test_block_has_one_row_per_non_unit_pivot(self, pipeline, monkeypatch):
        spec = pipeline.presentations["bielliptic"]
        monomials, rows = relation_rows(spec, 8)
        basis = la.lattice_basis(rows, len(monomials))
        non_unit = sum(1 for row in basis if row[min(row)] != 1)
        blocks = []
        real = la.smith_normal_form

        def recorded(A, ncols=None):
            blocks.append((len(A), ncols))
            return real(A, ncols)

        monkeypatch.setattr(la, "smith_normal_form", recorded)
        graded_piece(spec, 8)
        assert (len(basis), non_unit) == (95, 17)
        assert blocks == [(non_unit, len(monomials) - (len(basis) - non_unit))]

    @staticmethod
    def _swap_two_columns_of_v(monkeypatch):
        real = la.smith_normal_form

        def faulty(A, ncols=None):
            snf = real(A, ncols)
            if snf.ncols < 2:
                return snf
            V = [[row[1], row[0]] + row[2:] for row in snf.V]
            return dataclasses.replace(snf, V=V)

        monkeypatch.setattr(la, "smith_normal_form", faulty)

    def test_faulty_smith_form_makes_graded_piece_raise(self, bg_spec, monkeypatch):
        self._swap_two_columns_of_v(monkeypatch)
        with pytest.raises(AssertionError, match="U @ A @ V != D|not unimodular"):
            graded_piece(bg_spec, 2)

    def test_faulty_smith_form_fails_oracle_agreement_as_data(self, monkeypatch):
        fresh = Pipeline()
        fresh.presentations  # derived first, so only the check's Smith forms are faulty
        self._swap_two_columns_of_v(monkeypatch)
        result = fresh.run_check("oracle-agreement")
        assert result.status == "fail"
        assert result.witness.startswith("AssertionError: ")


class TestGradedPiece:
    def test_classifying_degree_one(self, bg_spec):
        # Oracle frozen by hand: one relation row (0, 0, 2) against basis
        # (beta1, gamma), Smith form diag(2): free part beta1, torsion Z/2.
        piece = graded_piece(bg_spec, 1)
        assert piece.free_rank == 1
        assert piece.torsion_invariants == (2,)
        ring = bg_spec.ring
        assert piece.is_zero(ring.parse("2*gamma"))
        assert not piece.is_zero(ring.var("gamma"))
        assert not piece.is_zero(ring.var("beta1"))

    def test_open_stratum_degree_one_torsion_free(self, open_spec):
        piece = graded_piece(open_spec, 1)
        assert piece.free_rank == 1
        assert piece.torsion_invariants == ()

    def test_degree_zero_fundamental_class(self, bg_spec, delta1_spec, open_spec):
        for spec in (bg_spec, delta1_spec, open_spec):
            piece = graded_piece(spec, 0)
            assert piece.free_rank == 1
            assert piece.torsion_invariants == ()

    def test_residue_detects_vanishing(self, bg_spec):
        ring = bg_spec.ring
        piece = graded_piece(bg_spec, 2)
        assert piece.is_zero(ring.parse("2*beta1*gamma"))
        assert not piece.is_zero(ring.parse("beta1*gamma"))
        assert piece.is_zero(ring.parse("gamma^2 + beta1*gamma"))

    def test_negative_degree_rejected(self, bg_spec):
        with pytest.raises(ValueError):
            graded_piece(bg_spec, -1)

    def test_foreign_ring_rejected(self):
        # Same variable count and weights, other names: the exponent tuples
        # would match the piece's monomials if the ring went unchecked.
        piece = graded_piece(RingSpec.build((("x", 1), ("y", 1)), ("2*x",)), 1)
        assert piece.is_zero(piece.ring.parse("2*x"))
        with pytest.raises(RingMismatchError):
            piece.is_zero(Ring(("a", 1), ("b", 1)).parse("2*a"))

    def test_oracle_agreement(self, bg_spec, delta1_spec, open_spec):
        for spec in (bg_spec, delta1_spec, open_spec):
            for d in range(0, 9):
                assert membership_matches_normal_form(spec, d)


class TestMemberProbes:
    """Through degree 8 no monomial lies in any pipeline ideal, so a sweep
    over monomials never meets a vanishing class.  Seeded sums of generator
    multiples do vanish, and with a monomial added or taken away they do not;
    the graded piece, the relation lattice and the normal form must agree."""

    @pytest.mark.parametrize("name", _PRESENTATIONS)
    def test_pipeline_presentations(self, pipeline, name):
        spec = pipeline.presentations[name]
        ring = spec.ring
        rng = random.Random(_PRESENTATIONS.index(name))
        generators = [g for g in spec.generators if g]
        for d in range(9):
            piece = graded_piece(spec, d)
            monomials = ring.monomials_of_degree(d)
            basis = spec.lattice(d)
            fitting = [g for g in generators if g.weighted_degree() <= d]
            for offset in (0, 0, 1, -1):
                probe = ring.zero()
                for _ in range(rng.randint(1, 5) if fitting else 0):
                    g = rng.choice(fitting)
                    multiplier = rng.choice(ring.monomials_of_degree(d - g.weighted_degree()))
                    probe = probe + ring.polynomial({multiplier: rng.randint(-6, 6)}) * g
                probe = probe + ring.polynomial({rng.choice(monomials): offset})
                member = la.lattice_coordinates(basis, probe.row()) is not None
                assert member == (offset == 0), (d, str(probe))
                assert piece.is_zero(probe) == member == spec.contains(probe), (d, str(probe))


def _pivots(spec, d):
    """The Hermite pivots of I_d, by column."""
    return {c: row[c] for c, row in la.pivots(spec.lattice(d))}


class TestOraclePass:
    """``membership_matches_normal_form`` answers a degree in one pass over
    its columns.  Each answer must be the one the public paths give, and a
    fault in either engine must fail ``oracle-agreement`` as data."""

    def test_column_answers_match_the_public_paths(self, pipeline):
        read = 0
        for spec in pipeline.presentations.values():
            ring, basis = spec.ring, spec.groebner
            for d in range(_ORACLE_DEGREE + 1):
                piece = graded_piece(spec, d)
                monomials = ring.monomials_of_degree(d)
                leads = [g.leading_term() for g in basis.elements if g.weighted_degree() <= d]
                c_mu = [
                    math.gcd(*(k for e, k in leads if all(map(le, e, mu)))) for mu in monomials
                ]
                assert _lead_gcds(spec, d) == {j: k for j, k in enumerate(c_mu) if k}, d
                assert _pivots(spec, d) == _lead_gcds(spec, d), d
                for j, mu in enumerate(monomials):
                    monomial = ring.polynomial({mu: 1})
                    assert piece._vanishes({j: 1}) == piece.is_zero(monomial), (d, mu)
                    assert (not any(_reduce_row(d, {j: 1}, basis))) == spec.contains(monomial)
                read += len(monomials)
        assert read == 700

    def test_a_doubled_torsion_entry_fails_oracle_agreement_as_data(self, pipeline, monkeypatch):
        real = graded.graded_piece

        def doubled(spec, d):
            piece = real(spec, d)
            diagonal = list(piece.diagonal)
            first = next((i for i, x in enumerate(diagonal) if x >= 2), None)
            if first is not None:
                diagonal[first] *= 2
            return dataclasses.replace(piece, diagonal=tuple(diagonal))

        monkeypatch.setattr(graded, "graded_piece", doubled)
        result = pipeline.run_check("oracle-agreement")
        assert (result.status, result.witness) == (
            "fail", "oracle disagreement in classifying ring, degree 1"
        )

    @pytest.mark.parametrize("name", _PRESENTATIONS)
    def test_every_doubled_torsion_entry_is_seen_by_the_member_rows(
        self, pipeline, name, monkeypatch
    ):
        # A larger diagonal entry only makes more vectors nonzero, and no
        # monomial of degree <= 8 lies in a pipeline ideal, so the monomials
        # read alike; the Hermite rows, members of I_d, do not.
        spec = pipeline.presentations[name]
        for d in range(_ORACLE_DEGREE + 1):
            piece = graded_piece(spec, d)
            columns = range(len(spec.ring.columns(d)))
            for i, x in enumerate(piece.diagonal):
                if x < 2:
                    continue
                diagonal = piece.diagonal[:i] + (2 * x,) + piece.diagonal[i + 1:]
                faulty = dataclasses.replace(piece, diagonal=diagonal)
                assert all(faulty._vanishes({j: 1}) == piece._vanishes({j: 1}) for j in columns)
                monkeypatch.setattr(graded, "graded_piece", lambda spec, d: faulty)
                assert not membership_matches_normal_form(spec, d), (d, i)

    @pytest.mark.parametrize("name", _PRESENTATIONS)
    def test_a_lost_basis_element_fails_oracle_agreement_as_data(
        self, pipeline, name, monkeypatch
    ):
        spec = pipeline.presentations[name]
        ring, elements = spec.ring, spec.groebner.elements
        for k, g in enumerate(elements):
            kept = elements[:k] + elements[k + 1:]
            monkeypatch.setitem(spec.__dict__, "groebner", StrongGroebnerBasis(ring, kept))
            exps, coeff = g.leading_term()
            d = ring.monomial_degree(exps)
            result = pipeline.run_check("oracle-agreement")
            assert (result.status, result.witness) == (
                "fail", f"oracle disagreement in {name} ring, degree {d}"
            ), str(g)
            # The c_mu list sees the loss, unless the gcd of the other leads
            # dividing g's leading monomial is g's lead coefficient; then
            # only the member rows do, which no longer reduce to zero.
            leads = [h.leading_term() for h in kept]
            cover = math.gcd(*(c for e, c in leads if all(map(le, e, exps))))
            assert (_lead_gcds(spec, d) != _pivots(spec, d)) == (cover != coeff), str(g)


class TestMultiplicationKernel:
    def test_zero_multiplier_keeps_everything(self, open_spec):
        kernels = multiplication_kernel(open_spec, open_spec.ring.zero(), 3)
        n = len(open_spec.ring.monomials_of_degree(1))
        assert kernels[1] == list(map(sparse, la.identity(n)))

    def test_free_ring_has_no_kernel(self):
        spec = RingSpec.build((("lambda1", 1),), ())
        kernels = multiplication_kernel(spec, spec.ring.var("lambda1"), 4)
        assert kernels == [[]] * 5

    def test_lifts_are_killed_by_the_multiplier(self, delta1_spec):
        ring = delta1_spec.ring
        m = ring.parse("gamma - lambda1")
        kernels = multiplication_kernel(delta1_spec, m, 5)
        for d, basis in enumerate(kernels):
            for row in basis:
                assert delta1_spec.contains(ring.from_row(d, row) * m)

    def test_candidate_generates_kernel(self, delta1_spec):
        ring = delta1_spec.ring
        m = ring.parse("gamma - lambda1")
        gamma = ring.var("gamma")
        kernels = multiplication_kernel(delta1_spec, m, 5)
        # gamma itself is in the kernel: (gamma - lambda1)*gamma =
        # gamma^2 - lambda1*gamma = -2*lambda1*gamma = 0.
        assert delta1_spec.contains(m * gamma)
        # So gamma generates a piece exactly when its lattice is that of
        # I + (gamma).  The free class 24*lambda2 and its lambda2 multiple are
        # not multiples of gamma, so the even pieces escape it.
        generated = delta1_spec.with_relations(gamma)
        by_gamma = []
        for d, basis in enumerate(kernels):
            monomials, rows = relation_rows(generated, d)
            by_gamma.append(basis == la.lattice_basis(rows, len(monomials)))
        assert by_gamma == [True, True, False, True, False, True]
        assert kernels[1]


class TestKernelAgainstReference:
    """``_kernel_lattice`` solves on the columns without a unit pivot; the
    preimage of every relation multiple one degree up is the reference."""

    def test_twist_quotient_through_degree_16(self, pipeline):
        spec = pipeline.presentations["twist-quotient"]
        m = spec.ring.parse("t - 2*lambda1")
        expected = [reference_kernel_lattice(spec, m, d) for d in range(17)]
        assert multiplication_kernel(spec, m, 16) == expected

    def test_boundary_ring_through_degree_12(self, pipeline):
        spec = pipeline.presentations["boundary"]
        m = spec.ring.parse("gamma - lambda1")
        expected = [reference_kernel_lattice(spec, m, d) for d in range(13)]
        assert multiplication_kernel(spec, m, 12) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.booleans(),
        st.booleans(),
        st.sampled_from(["zero", "unit", "degree 1", "degree 2"]),
    )
    @example(random.Random(0), True, True, "degree 2")
    def test_random_presentations(self, rng, constant, zero, multiplier):
        spec = _random_spec(rng, constant, zero)
        ring = spec.ring
        m = {
            "zero": ring.zero,
            "unit": ring.one,
            "degree 1": lambda: random_homogeneous(ring, 1, rng, max_terms=3, coeff_bound=4),
            "degree 2": lambda: random_homogeneous(ring, 2, rng, max_terms=3, coeff_bound=4),
        }[multiplier]()
        for d in range(6):
            assert _kernel_lattice(spec, m, d) == reference_kernel_lattice(spec, m, d), d


class TestEnumeration:
    def test_three_boundary_classes(self, delta1_spec):
        ring = delta1_spec.ring
        gamma, l1, l2 = ring.var("gamma"), ring.var("lambda1"), ring.var("lambda2")
        elements = enumerate_kernel_elements(delta1_spec, gamma - l1, 3)
        expected = {
            delta1_spec.normal_form(gamma * l1 ** 2),
            delta1_spec.normal_form(gamma * l2),
            delta1_spec.normal_form(gamma * (l1 ** 2 + l2)),
        }
        assert len(elements) == 3
        assert set(elements) == expected

    def test_unit_multiplier_empty(self, delta1_spec):
        assert enumerate_kernel_elements(delta1_spec, delta1_spec.ring.one(), 3) == []

    def test_degree_zero_torsion_free(self, delta1_spec):
        m = delta1_spec.parse("gamma - lambda1")
        assert enumerate_kernel_elements(delta1_spec, m, 0) == []

    def test_infinite_kernel_reported(self, open_spec):
        # Multiplication by 20*lambda1*lambda2 = 0 kills the whole ring, and
        # degree-1 contains a free class, so enumeration must refuse.
        m = open_spec.parse("20*lambda1*lambda2")
        with pytest.raises(InfiniteKernelError):
            enumerate_kernel_elements(open_spec, m, 1)


# Multipliers of the boundary ring and their twist-quotient counterparts, with
# t - 2*lambda1 in place of gamma - lambda1 and t in place of gamma.
_MULTIPLIERS = {
    "boundary": ("gamma - lambda1", "gamma", "lambda1", "1", "0"),
    "twist-quotient": ("t - 2*lambda1", "t", "lambda1", "1", "0"),
}
# The whole boundary piece in degrees 4 and 5 has 110,592 classes each, and
# the kernel of gamma there 13,824: too many to reduce twice in a unit test.
_TOO_LARGE = {("boundary", "0", 4), ("boundary", "0", 5),
              ("boundary", "gamma", 4), ("boundary", "gamma", 5)}


class TestEnumerationAgainstSmithForm:
    @pytest.mark.parametrize("ring_name", sorted(_MULTIPLIERS))
    def test_matches_the_smith_form_enumeration(self, pipeline, ring_name):
        spec = pipeline.presentations[ring_name]
        infinite = 0
        for text in _MULTIPLIERS[ring_name]:
            m = spec.ring.parse(text)
            for d in range(6):
                if (ring_name, text, d) in _TOO_LARGE:
                    continue
                expected = reference_kernel_elements(spec, m, d)
                if expected is None:
                    infinite += 1
                    with pytest.raises(InfiniteKernelError, match="free rank"):
                        enumerate_kernel_elements(spec, m, d)
                else:
                    elements = enumerate_kernel_elements(spec, m, d)
                    assert elements == sorted(elements, key=str), (text, d)
                    assert len(elements) == len(expected), (text, d)
                    assert set(elements) == expected, (text, d)
        assert infinite

    def test_takes_no_smith_form(self, delta1_spec, monkeypatch):
        calls = []
        real = la.smith_normal_form

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(la, "smith_normal_form", counted)
        ring = delta1_spec.ring
        assert len(enumerate_kernel_elements(delta1_spec, ring.parse("gamma - lambda1"), 3)) == 3
        with pytest.raises(InfiniteKernelError):
            enumerate_kernel_elements(delta1_spec, ring.zero(), 2)
        assert calls == []


def _seeded_twist_quotient(sound: Pipeline, d: int, corrupt) -> Pipeline:
    """A fresh pipeline whose twist quotient keeps ``corrupt`` of the sound
    Hermite basis in degree d, so the degrees above are built from it; its
    twist kernels are derived from those kept lattices."""
    data = sound.gm_data
    spec = RingSpec(data["spec"].ring, data["spec"].generators)
    spec.lattice(d - 1)
    spec._lattices.append(corrupt(data["spec"].lattice(d)))
    fresh = Pipeline(max_degree=sound.max_degree)
    fresh.__dict__["gm_data"] = {**data, "spec": spec}
    return fresh


def _units(basis):
    return [i for i, row in enumerate(basis) if row[min(row)] == 1]


def _drop_a_unit_row(basis):
    first = _units(basis)[0]
    return basis[:first] + basis[first + 1:]


def _double_a_unit_pivot(basis):
    first = _units(basis)[0]
    doubled = {j: 2 * x for j, x in basis[first].items()}
    return basis[:first] + [doubled] + basis[first + 1:]


def _add_a_relation(basis):
    """The basis with one more relation, outside the ideal: the unit vector
    of its first column without a pivot.  Columns past the last entry of
    the basis hold no pivot, so the first one is the last candidate."""
    n = 1 + max(j for row in basis for j in row)
    pivots = {c for c, _ in la.pivots(basis)}
    free = next(j for j in range(n + 1) if j not in pivots)
    return la.lattice_basis(basis + [{free: 1}], n + 1)


class TestKeptLattices:
    """A presentation keeps the Hermite basis of each degree it has
    eliminated; a wrong kept basis must fail a check, and no basis may be
    kept beyond its pipeline."""

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("corrupt", [_drop_a_unit_row, _double_a_unit_pivot])
    def test_corrupted_basis_fails_with_a_witness(self, pipeline, corrupt, d):
        report = _seeded_twist_quotient(pipeline, d, corrupt).run()
        failing = {c.id: c.witness for c in report.checks if c.status == "fail"}
        assert set(failing) == {"thm:45", "oracle-agreement"}
        if d == 3:
            # Completion reads the lost relations, and its certificate,
            # which reads no lattice, finds a generator left over.
            lost = "AssertionError: completed basis does not contain a generator"
            assert failing == {"thm:45": lost, "oracle-agreement": lost}
            return
        # Completion closes the twist quotient in degree 4 and never reads
        # degree 5; in both its certificate passes.  Through degree 8 no
        # monomial lies in a pipeline ideal, so only the oracle's pivot
        # comparison sees the lost relations.
        assert failing["thm:45"].startswith(
            f"kernel piece in degree {d} is not generated by the two classes"
        )
        assert failing["oracle-agreement"] == (
            f"oracle disagreement in twist-quotient ring, degree {d}"
        )

    @pytest.mark.parametrize("d, witness", [
        (3, "kernel piece in degree 2 should vanish"),
        (5, "kernel piece in degree 4 is not generated by the two classes"),
    ])
    def test_gained_relation_fails_with_a_witness(self, pipeline, d, witness):
        report = _seeded_twist_quotient(pipeline, d, _add_a_relation).run()
        failing = {c.id: c.witness for c in report.checks if c.status == "fail"}
        # In degree 3 completion keeps the gained relation, so both sides of
        # the oracle read it alike; the twist kernel still sees it.
        assert set(failing) <= {"thm:45", "oracle-agreement"}
        assert failing["thm:45"].startswith(witness)

    def test_pipelines_share_no_kept_lattice(self, monkeypatch):
        real = la.lattice_basis
        runs = []
        for _ in range(2):
            calls = []

            def counted(rows, ncols, calls=calls):
                calls.append(ncols)
                return real(rows, ncols)

            monkeypatch.setattr(la, "lattice_basis", counted)
            fresh = Pipeline(max_degree=6)
            report = fresh.run(ids=["thm:45", "oracle-agreement"])
            assert report.overall == "pass"
            kept = [spec._lattices for spec in fresh.presentations.values()]
            runs.append((calls, kept))
        (first_calls, first_kept), (second_calls, second_kept) = runs
        assert second_calls == first_calls
        assert all(a is not b for a, b in zip(first_kept, second_kept))
