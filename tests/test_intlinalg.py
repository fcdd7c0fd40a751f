"""Exact integer linear algebra: Hermite and Smith forms, preimages, lattices."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from genus2chow import graded, intlinalg as la
from genus2chow.groebner import RingSpec
from genus2chow.pipeline import Pipeline

from helpers import dense, matvec_left, reference_preimage, reference_smith_normal_form, sparse


def small_matrices(max_dim=6, bound=30):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


def hermite_inputs(max_dim=5, bound=20):
    """Up to max_dim rows of one width w, possibly none, and a pivot bound
    ncols <= w, so rows may be wider than the columns that take pivots."""
    return st.integers(1, max_dim).flatmap(
        lambda w: st.tuples(
            st.lists(
                st.lists(st.integers(-bound, bound), min_size=w, max_size=w),
                max_size=max_dim,
            ),
            st.integers(0, w),
        )
    )


def lattice_cases(max_dim=5, bound=20):
    """Up to max_dim rows of one width w, possibly none, one coefficient per
    row and a probe vector of width w."""
    return st.integers(1, max_dim).flatmap(
        lambda w: st.lists(
            st.lists(st.integers(-bound, bound), min_size=w, max_size=w),
            max_size=max_dim,
        ).flatmap(
            lambda rows: st.tuples(
                st.just(rows),
                st.lists(st.integers(-9, 9), min_size=len(rows), max_size=len(rows)),
                st.lists(st.integers(-bound, bound), min_size=w, max_size=w),
            )
        )
    )


def assert_hermite_shape(hf, A):
    """H = U @ A, pivot columns increase, pivots are positive, entries above
    a pivot are reduced modulo it and entries below it are 0."""
    assert la.matmul(hf.transform, A) == hf.rows
    cols = [c for _, c in hf.pivots]
    assert cols == sorted(cols)
    for r, c in hf.pivots:
        pivot = hf.rows[r][c]
        assert pivot > 0
        for i in range(r):
            assert 0 <= hf.rows[i][c] < pivot
        for i in range(r + 1, len(A)):
            assert hf.rows[i][c] == 0


class TestHermite:
    @settings(max_examples=80, deadline=None)
    @given(small_matrices())
    def test_transform_and_shape(self, A):
        assert_hermite_shape(la.hermite_normal_form(A, len(A[0])), A)

    @settings(max_examples=40, deadline=None)
    @given(small_matrices())
    def test_row_lattice_membership(self, A):
        hf = la.hermite_normal_form(A, len(A[0]))
        rng = random.Random(1)
        combo = [rng.randint(-5, 5) for _ in A]
        vec = matvec_left(combo, A)
        basis = [sparse(hf.rows[r]) for r, _ in hf.pivots]
        assert la.lattice_coordinates(basis, sparse(vec)) is not None

    def test_canonical_basis_equality(self):
        rows_a = [[2, 0], [0, 3]]
        rows_b = [[2, 3], [2, -3], [4, 3]]
        assert la.lattice_basis(list(map(sparse, rows_a)), 2) == la.lattice_basis(
            list(map(sparse, rows_b)), 2
        )


class TestSharedElimination:
    """``lattice_basis`` and ``hermite_normal_form`` run one elimination;
    only the latter tracks the transform."""

    @settings(max_examples=80, deadline=None)
    @given(hermite_inputs())
    @example(([], 3))
    @example(([[0, 2, 1], [0, 4, 5]], 1))
    def test_basis_and_transform(self, case):
        A, n = case
        hf = la.hermite_normal_form(A, n)
        basis = [sparse(hf.rows[r]) for r, _ in hf.pivots]
        assert la.lattice_basis(list(map(sparse, A)), n) == basis
        assert la.matmul(hf.transform, A) == hf.rows
        assert all(c < n for _, c in hf.pivots)
        if A:
            assert abs(la.determinant_expansion(hf.transform)) == 1

    @settings(max_examples=150, deadline=None)
    @given(hermite_inputs(max_dim=8, bound=2))
    # Row 1 minus twice row 0 cancels column 1, right of the pivot.
    @example(([[1, 2, 1], [2, 4, 0]], 3))
    # The same cancellation in a column that takes no pivot (ncols < width).
    @example(([[2, 1, 0], [4, 2, 1]], 1))
    # Back-substitution above the second pivot cancels column 2 of row 0.
    @example(([[1, 1, 1], [0, 1, 1]], 3))
    def test_sparse_cancellations(self, case):
        """Entries in -2..2 make row updates cancel entries to exactly 0,
        which the sparse rows of the elimination must drop."""
        A, n = case
        hf = la.hermite_normal_form(A, n)
        assert_hermite_shape(hf, A)
        assert all(c < n for _, c in hf.pivots)
        basis = [sparse(hf.rows[r]) for r, _ in hf.pivots]
        assert la.lattice_basis(list(map(sparse, A)), n) == basis

    def test_lattice_basis_builds_no_transform(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("hermite_normal_form called")

        monkeypatch.setattr(la, "hermite_normal_form", refuse)
        rows = list(map(sparse, [[2, 3], [2, -3], [4, 3]]))
        assert la.lattice_basis(rows, 2) == list(map(sparse, [[2, 0], [0, 3]]))
        assert la.lattice_basis(list(map(sparse, [[0, 2, 1], [0, 4, 5]])), 1) == []
        spec = RingSpec.build(
            (("beta1", 1), ("beta2", 2), ("gamma", 1)),
            ("2*gamma", "gamma^2 + beta1*gamma"),
        )
        piece = graded.graded_piece(spec, 1)
        assert (piece.free_rank, piece.torsion_invariants) == (1, (2,))
        piece = graded.graded_piece(spec, 2)
        assert (piece.free_rank, piece.torsion_invariants) == (2, (2,))


def smith_inputs(max_dim=7, bound=20):
    """(A, n): up to max_dim rows of width n in 1..max_dim, possibly none.
    When the drawn flag is set, the last row is replaced by a combination of
    the others, so rank-deficient matrices without a zero row occur."""
    def build(n):
        row = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
        return st.tuples(
            st.lists(row, max_size=max_dim),
            st.lists(st.integers(-3, 3), min_size=max_dim, max_size=max_dim),
            st.booleans(),
            st.just(n),
        )

    def combine(drawn):
        rows, coeffs, dependent, n = drawn
        if dependent and rows:
            rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows[:-1])) for j in range(n)]
        return rows, n

    return st.integers(1, max_dim).flatmap(build).map(combine)


class TestSmith:
    @settings(max_examples=80, deadline=None)
    @given(small_matrices())
    def test_verify(self, A):
        snf = la.smith_normal_form(A, len(A[0]))
        snf.verify(A)

    @settings(max_examples=20, deadline=None)
    @given(small_matrices(max_dim=5, bound=12))
    def test_unimodular_determinants(self, A):
        snf = la.smith_normal_form(A, len(A[0]))
        assert abs(la.determinant_expansion(snf.U)) == 1
        assert abs(la.determinant_expansion(snf.V)) == 1

    def test_known_form(self):
        snf = la.smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3)
        snf.verify([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert snf.diagonal == [2, 2, 156]

    def test_later_pivot_needs_divisibility_fix(self):
        # The first pivot 2 does not divide 3, so a row is added back to it.
        A = [[2, 0], [0, 3]]
        snf = la.smith_normal_form(A, 2)
        snf.verify(A)
        assert snf.diagonal == [1, 6]

    def test_first_unit_is_the_pivot(self):
        # Units at (0, 2), (1, 0) and (2, 1); U and V depend on which one
        # the eliminations reach first, the diagonal does not.
        A = [[2, 3, 1], [1, 4, 6], [5, 1, 7]]
        snf = la.smith_normal_form(A, 3)
        snf.verify(A)
        assert snf.diagonal == [1, 1, 94]

    def test_rank_deficient(self):
        A = [[1, 2], [2, 4]]
        snf = la.smith_normal_form(A, 2)
        snf.verify(A)
        assert snf.diagonal == [1, 0]

    @settings(max_examples=150, deadline=None)
    @given(smith_inputs())
    @example(([], 3))
    @example(([[0, 0, 0]], 3))
    @example(([[2, 4], [3, 6], [5, 10]], 2))
    def test_diagonal_matches_the_reference(self, case):
        A, n = case
        snf = la.smith_normal_form(A, n)
        snf.verify(A)
        assert snf.diagonal == reference_smith_normal_form(A, n).diagonal

    def test_pipeline_inputs_match_the_reference(self):
        inputs = []
        smith = la.smith_normal_form

        def capture(A, ncols=None):
            inputs.append((A, ncols))
            return smith(A, ncols)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(la, "smith_normal_form", capture)
            assert Pipeline(max_degree=12).run().overall == "pass"
        assert inputs
        for A, n in inputs:
            snf = smith(A, n)
            snf.verify(A)
            assert snf.diagonal == reference_smith_normal_form(A, n).diagonal


def _combination(x, basis, width):
    """The dense vector x @ basis, for coordinates and a basis as
    ``lattice_coordinates`` and ``lattice_basis`` give them."""
    if not basis:
        return [0] * width
    return matvec_left(dense(x, len(basis)), [dense(row, width) for row in basis])


class TestSolveAndKernel:
    def test_solve_left_exact(self):
        B = la.lattice_basis(list(map(sparse, [[2, 0, 1], [0, 3, 1]])), 3)
        v = [4, 3, 3]
        x = la.lattice_coordinates(B, sparse(v))
        assert x is not None and _combination(x, B, 3) == v

    def test_solve_left_no_solution(self):
        assert la.lattice_coordinates(la.lattice_basis([sparse([2, 0])], 2), sparse([1, 0])) is None

    def test_solve_left_many(self):
        B = la.lattice_basis(list(map(sparse, [[1, 1], [0, 2]])), 2)
        assert la.lattice_coordinates(B, sparse([1, 3])) == sparse([1, 1])
        x = la.lattice_coordinates(B, sparse([2, 4]))
        assert x is not None and _combination(x, B, 2) == [2, 4]
        assert la.lattice_coordinates(B, sparse([0, 1])) is None

    @settings(max_examples=80, deadline=None)
    @given(lattice_cases())
    def test_lattice_coordinates_round_trip(self, case):
        rows, coeffs, probe = case
        n = len(probe)
        B = la.lattice_basis(list(map(sparse, rows)), n)

        def combination(x):
            return _combination(x, B, n)

        x = sparse(coeffs[: len(B)])
        assert la.lattice_coordinates(B, sparse(combination(x))) == x
        # A probe has coordinates exactly when adding it to the raw rows
        # leaves their lattice unchanged, and then they reproduce it.
        coords = la.lattice_coordinates(B, sparse(probe))
        if la.lattice_basis(list(map(sparse, rows + [probe])), n) != B:
            assert coords is None
        else:
            assert coords is not None and combination(coords) == probe

    def test_lattice_coordinates_empty_basis(self):
        assert la.lattice_coordinates([], sparse([0, 0, 0])) == sparse([])
        assert la.lattice_coordinates([], sparse([0, 1, 0])) is None


def preimage_cases(max_dim=4, bound=6):
    """Matrices A and B of one width w, each with up to max_dim rows,
    possibly none."""
    def rows(w):
        return st.lists(
            st.lists(st.integers(-bound, bound), min_size=w, max_size=w), max_size=max_dim
        )

    return st.integers(0, max_dim).flatmap(lambda w: st.tuples(rows(w), rows(w), st.just(w)))


class TestPreimage:
    @settings(max_examples=120, deadline=None)
    @given(preimage_cases())
    @example(([], [[1, 2]], 2))
    @example(([[1, 2]], [], 2))
    @example(([], [], 3))
    @example(([[0, 0], [0, 0]], [[2, 0]], 2))
    def test_equals_the_transform_route(self, case):
        A, B, n = case
        assert la.preimage_basis(list(map(sparse, A)), list(map(sparse, B)), n) == (
            reference_preimage(*case)
        )

    @settings(max_examples=80, deadline=None)
    @given(preimage_cases())
    def test_rows_map_into_the_target_lattice(self, case):
        A, B, n = case
        target = la.lattice_basis(list(map(sparse, B)), n)
        for x in la.preimage_basis(list(map(sparse, A)), list(map(sparse, B)), n):
            image = matvec_left(dense(x, len(A)), A)
            assert la.lattice_coordinates(target, sparse(image)) is not None

    @settings(max_examples=80, deadline=None)
    @given(preimage_cases())
    def test_empty_target_gives_the_left_kernel(self, case):
        A, _, n = case
        kernel = la.preimage_basis(list(map(sparse, A)), [], n)
        for x in kernel:
            assert matvec_left(dense(x, len(A)), A) == [0] * n
        assert len(kernel) == len(A) - len(la.lattice_basis(list(map(sparse, A)), n))

    def test_kernel_example(self):
        A = list(map(sparse, [[1, 2], [2, 4]]))
        assert la.preimage_basis(A, [], 2) == [sparse([2, -1])]
        # 2*x0 + 4*x1 lies in 4Z exactly when x0 is even.
        A, B = list(map(sparse, [[2], [4]])), [sparse([4])]
        assert la.preimage_basis(A, B, 1) == list(map(sparse, [[2, 0], [0, 1]]))

    def test_full_run_builds_no_transform(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("hermite_normal_form called")

        monkeypatch.setattr(la, "hermite_normal_form", refuse)
        report = Pipeline().run()
        assert report.overall == "pass", [c.witness for c in report.checks if c.status != "pass"]
        assert len(report.checks) == 21


def _reversed(row):
    """The same lattice row with its entries stored in the opposite order."""
    return dict(reversed(row.items()))


def rearranged_rows(max_dim=5, bound=6):
    """Up to max_dim rows of one width w, a permutation of them and the
    coefficients of one more row that combines them."""
    return st.integers(1, max_dim).flatmap(
        lambda w: st.lists(
            st.lists(st.integers(-bound, bound), min_size=w, max_size=w), max_size=max_dim
        ).flatmap(
            lambda rows: st.tuples(
                st.just(rows),
                st.permutations(range(len(rows))),
                st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)),
                st.just(w),
            )
        )
    )


def rearranged_preimages(max_dim=4, bound=6):
    """A preimage case (A, B, w), a permutation of A's rows and one of B's,
    and the coefficients of one more row of B that combines B's rows."""
    return preimage_cases(max_dim, bound).flatmap(
        lambda case: st.tuples(
            st.just(case),
            st.permutations(range(len(case[0]))),
            st.permutations(range(len(case[1]))),
            st.lists(st.integers(-3, 3), min_size=len(case[1]), max_size=len(case[1])),
        )
    )


class TestCanonicalBases:
    """The pivot choice depends on how many entries each row stores, yet the
    bases reached are canonical: the same for every order of the rows, with
    or without redundant rows, whatever the order of each row's entries."""

    @settings(max_examples=100, deadline=None)
    @given(rearranged_rows())
    @example(([[2, 0, 1], [2, 3, 0], [4, 0, 0]], [2, 0, 1], [1, -1, 2], 3))
    def test_lattice_basis(self, case):
        rows, order, coeffs, w = case
        basis = la.lattice_basis(list(map(sparse, rows)), w)
        shuffled = [sparse(rows[i]) for i in order]
        assert la.lattice_basis(shuffled, w) == basis
        assert la.lattice_basis(list(map(_reversed, shuffled)), w) == basis
        if rows:
            combined = rows + [matvec_left(coeffs, rows)]
            assert la.lattice_basis(list(map(sparse, combined)), w) == basis

    @settings(max_examples=100, deadline=None)
    @given(rearranged_preimages())
    @example((([[1, 2], [2, 1], [0, 3]], [[3, 0], [0, 6]], 2), [2, 0, 1], [1, 0], [2, -1]))
    def test_preimage_basis(self, case):
        (A, B, w), order_a, order_b, coeffs = case
        A, B, rows_b = list(map(sparse, A)), list(map(sparse, B)), B
        expected = la.preimage_basis(A, B, w)
        assert la.preimage_basis(A, [B[i] for i in order_b], w) == expected
        assert la.preimage_basis(list(map(_reversed, A)), list(map(_reversed, B)), w) == expected
        if B:
            combined = B + [sparse(matvec_left(coeffs, rows_b))]
            assert la.preimage_basis(A, combined, w) == expected
        # Permuting A's rows permutes the preimage's coordinates alike.
        permuted = [{j: x[i] for j, i in enumerate(order_a) if i in x} for x in expected]
        assert la.preimage_basis([A[i] for i in order_a], B, w) == la.lattice_basis(
            permuted, len(A)
        )


class TestDeterminant:
    def test_integer_determinants(self):
        assert la.determinant_expansion([[1, 2], [3, 4]]) == -2
        assert la.determinant_expansion([[3]]) == 3
        assert la.determinant_expansion(la.identity(5)) == 1

    def test_polynomial_determinant(self):
        from genus2chow.ring import Ring

        ring = Ring(("x", 1), ("y", 1))
        x, y = ring.var("x"), ring.var("y")
        det = la.determinant_expansion([[x, y], [y, x]])
        assert det == x * x - y * y

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            la.determinant_expansion([[1, 2]])
