"""Exact linear algebra over the integers.

Everything here works on Python ints, so there is no overflow anywhere:
Hermite and Smith normal forms, preimage lattices and lattice coordinates.
A lattice row is sparse, a {column: entry} dict with no zero entries
(``Row``), so a row update skips the zero entries.  Hermite bases
(``lattice_basis``), preimages (``preimage_basis``), their pivots
(``pivots``: a row's pivot is its least key) and coordinates
(``lattice_coordinates``) take and return such rows, and ``_subtract`` is
the one row update.  Hermite elimination, among the rows whose entry in the
pivot column is least in absolute value, takes the one with the fewest
stored entries, which keeps the fill of later updates small; the Hermite
basis it reaches is canonical whatever the choice.  Only the Smith form and
``hermite_normal_form``, which nothing in the package calls, take and
return dense matrices; only ``hermite_normal_form`` builds its unimodular U,
in rows of its own that take the same row operations.  Both normal forms
take the column count, so an empty matrix is no special case.  The one
elimination, ``_hermite``, serves Hermite bases, preimages and Smith forms:
``groebner.RingSpec.lattice`` builds each degree's relation lattice through
``lattice_basis`` from x_v times the Hermite basis of the degree below, and
Groebner completion and ``graded`` read those bases; ``graded`` solves
multiplication kernels after clearing the unit-pivot columns; and
``smith_normal_form`` alternates it on the rows and the columns, as Kannan
and Bachem do, so every step reduces entries modulo a pivot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

Matrix = list[list[int]]
# A lattice row: {column: entry}, with no zero entries.
Row = dict[int, int]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> Matrix:
    if A and B and len(A[0]) != len(B):
        raise ValueError("inner dimensions disagree")
    if not B:
        return [[] for _ in A]
    ncols = len(B[0])
    out = []
    for row in A:
        acc = [0] * ncols
        for a, brow in zip(row, B):
            if a:
                for j, b in enumerate(brow):
                    if b:
                        acc[j] += a * b
        out.append(acc)
    return out


def matvec_left(v: Sequence[int], A: Sequence[Sequence[int]]) -> list[int]:
    """Row vector times matrix."""
    if len(v) != len(A):
        raise ValueError("dimension mismatch")
    ncols = len(A[0]) if A else 0
    acc = [0] * ncols
    for a, row in zip(v, A):
        if a:
            for j, b in enumerate(row):
                if b:
                    acc[j] += a * b
    return acc


# -- Hermite normal form -------------------------------------------------------


@dataclass
class HermiteForm:
    """Row-style Hermite normal form H = U @ A.

    Pivots are positive, entries above each pivot lie in [0, pivot), pivot
    columns strictly increase, and zero rows sit at the bottom.  U is
    unimodular.
    """

    rows: Matrix
    transform: Matrix
    pivots: list[tuple[int, int]]


def _sparse(row: Sequence[int]) -> Row:
    return {j: x for j, x in enumerate(row) if x}


def _dense(row: Row, width: int) -> list[int]:
    out = [0] * width
    for j, x in row.items():
        out[j] = x
    return out


def _subtract(row: Row, q: int, prow: Row) -> None:
    """row -= q * prow, in place, for nonzero q, deleting the entries that
    cancel."""
    get = row.get
    for j, y in prow.items():
        v = get(j, 0) - q * y
        if v:
            row[j] = v
        else:
            del row[j]


def _hermite(H: list[Row], ncols: int, T: list[Row] | None = None) -> list[tuple[int, int]]:
    """Hermite elimination of H in place with pivots in its first ncols
    columns; returns the (row, column) pivots.

    Rows are held sparse, as {column: entry} dicts: a row update touches only
    the nonzero entries of the pivot row, and an entry that cancels to 0 is
    deleted.  Each Euclid step pivots on the row of least absolute entry in
    the column and, among those, of fewest stored entries, appended ones
    included.  Row operations act on whole rows, so appended identity
    entries track U; rows T, one per row of H, take the same operations
    without entering the pivot choice."""
    m = len(H)
    pivots: list[tuple[int, int]] = []
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == m:
            break
        # Euclid the column entries at/below pivot_row down to one survivor.
        # A row without an entry in col never gains one, so the rows holding
        # one are collected once and only thinned afterwards.
        nz = [i for i in range(pivot_row, m) if col in H[i]]
        while len(nz) > 1:
            p = min(nz, key=lambda i: (abs(H[i][col]), len(H[i])))
            prow = H[p]
            pivot = prow[col]
            for i in nz:
                if i != p:
                    q = H[i][col] // pivot  # nonzero: |H[i][col]| >= |pivot|
                    _subtract(H[i], q, prow)
                    if T is not None:
                        _subtract(T[i], q, T[p])
            nz = [i for i in nz if col in H[i]]
        if not nz:
            continue
        p = nz[0]
        if p != pivot_row:
            H[pivot_row], H[p] = H[p], H[pivot_row]
            if T is not None:
                T[pivot_row], T[p] = T[p], T[pivot_row]
        prow = H[pivot_row]
        if prow[col] < 0:
            prow = H[pivot_row] = {j: -x for j, x in prow.items()}
            if T is not None:
                T[pivot_row] = {j: -x for j, x in T[pivot_row].items()}
        pivot = prow[col]
        for i in range(pivot_row):
            q = H[i].get(col, 0) // pivot
            if q:
                _subtract(H[i], q, prow)
                if T is not None:
                    _subtract(T[i], q, T[pivot_row])
        pivots.append((pivot_row, col))
        pivot_row += 1
    return pivots


def hermite_normal_form(A: Sequence[Sequence[int]], ncols: int) -> HermiteForm:
    """Hermite form of A, with pivots in its first ncols columns, together
    with its unimodular transform U.

    U is kept in rows apart from A's, so the elimination, pivot choices
    included, is the one ``lattice_basis`` runs."""
    width = len(A[0]) if A else 0
    m = len(A)
    H = [_sparse(row) for row in A]
    T = [{i: 1} for i in range(m)]
    pivots = _hermite(H, ncols, T)
    return HermiteForm([_dense(row, width) for row in H], [_dense(row, m) for row in T], pivots)


def lattice_basis(rows: Sequence[Row], ncols: int) -> list[Row]:
    """Canonical basis (HNF) of the lattice the rows span, with pivots in
    the first ncols columns; the rows left without one are dropped.

    Two row sets span the same lattice exactly when these bases are equal.
    The elimination runs on copies of the rows alone; no transform is built.
    """
    H = [dict(row) for row in rows]
    return [H[r] for r, _ in _hermite(H, ncols)]


def pivots(basis: Sequence[Row]):
    """(pivot column, row) for each row of a Hermite basis, as
    ``lattice_basis`` gives it: a row's pivot is its least column."""
    for row in basis:
        yield min(row), row


def lattice_coordinates(basis: Sequence[Row], v: Row) -> Row | None:
    """The integer row vector x with x @ basis = v, as {row index: entry},
    or None if v lies outside the lattice.  The basis must be in Hermite
    form, as ``lattice_basis`` gives it, so one pass over its pivots solves
    for x."""
    residual = dict(v)
    coeffs: Row = {}
    for i, (c, row) in enumerate(pivots(basis)):
        q, rem = divmod(residual.get(c, 0), row[c])
        if rem:
            return None
        if q:
            _subtract(residual, q, row)
            coeffs[i] = q
    return None if residual else coeffs


def preimage_basis(A: Sequence[Row], B: Sequence[Row], ncols: int) -> list[Row]:
    """Hermite basis, as ``lattice_basis`` gives it, of the lattice of row
    vectors x, indexed by A's rows, with x @ A in the row lattice of B:
    eliminating [A | I; B | 0] over the ncols columns of A and B leaves rows
    below the pivots that vanish there, and their identity parts span it."""
    n = len(A)
    H = [row | {ncols + i: 1} for i, row in enumerate(A)] + [dict(row) for row in B]
    rank = len(_hermite(H, ncols))
    return lattice_basis([{j - ncols: x for j, x in row.items()} for row in H[rank:]], n)


# -- Smith normal form ---------------------------------------------------------


@dataclass
class SmithNormalForm:
    """Diagonalization U @ A @ V = D by unimodular U and V.

    ``diagonal`` lists the diagonal of D (nonnegative, each dividing the
    next among the nonzero entries).  The inverses certify
    unimodularity exactly: U @ Uinv = I and V @ Vinv = I over the integers.
    """

    nrows: int
    ncols: int
    U: Matrix
    V: Matrix
    Uinv: Matrix
    Vinv: Matrix
    diagonal: list[int]

    def verify(self, A: Sequence[Sequence[int]]) -> None:
        """Raise AssertionError unless all structural guarantees hold."""
        D = [[0] * self.ncols for _ in range(self.nrows)]
        for i, d in enumerate(self.diagonal):
            D[i][i] = d
        if matmul(matmul(self.U, [list(r) for r in A]), self.V) != D:
            raise AssertionError("U @ A @ V != D")
        if matmul(self.U, self.Uinv) != identity(self.nrows):
            raise AssertionError("U is not unimodular")
        if matmul(self.V, self.Vinv) != identity(self.ncols):
            raise AssertionError("V is not unimodular")
        nonzero = [d for d in self.diagonal if d]
        for a, b in zip(nonzero, nonzero[1:]):
            if b % a:
                raise AssertionError("diagonal is not a divisibility chain")
        if any(d < 0 for d in self.diagonal):
            raise AssertionError("diagonal entries must be nonnegative")


def _transpose(rows: list[Row], ncols: int) -> list[Row]:
    out: list[Row] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _combine(rows: list[Row], i: int, j: int, x: int, y: int, z: int, w: int) -> None:
    """Rows i and j become x·row_i + y·row_j and z·row_i + w·row_j."""
    ri, rj = rows[i], rows[j]
    keys = ri.keys() | rj.keys()
    rows[i] = {k: v for k in keys if (v := x * ri.get(k, 0) + y * rj.get(k, 0))}
    rows[j] = {k: v for k in keys if (v := z * ri.get(k, 0) + w * rj.get(k, 0))}


def _inverse(rows: list[Row]) -> Matrix:
    """The inverse of a unimodular matrix, dense: its Hermite form is the
    identity, so the transform rows that reach it are the inverse."""
    n = len(rows)
    T = [{i: 1} for i in range(n)]
    _hermite([dict(row) for row in rows], n, T)
    return [_dense(row, n) for row in T]


def smith_normal_form(A: Sequence[Sequence[int]], ncols: int) -> SmithNormalForm:
    """Smith form of the m × ncols matrix A, after Kannan and Bachem
    ("Polynomial algorithms for computing the Smith and Hermite normal forms
    of an integer matrix", SIAM J. Comput. 8, 1979): Hermite eliminations of
    the rows and of the columns in turn, on the one ``_hermite``, until every
    row holds at most its diagonal entry.  Each elimination reduces the entries above its pivots
    modulo them, which keeps entries from growing from phase to phase.  The
    row phase carries U in its transform rows; the column phase runs on the
    transpose and carries the columns of V.  Then one 2×2 Bezout step on U's
    rows and V's columns turns each diagonal pair (a, b) with a ∤ b into
    (gcd, lcm), and Uinv and Vinv are the transforms that eliminate U and V
    to the identity."""
    m = len(A)
    n = ncols
    D = [_sparse(row) for row in A]
    transforms = ([{i: 1} for i in range(m)], [{j: 1} for j in range(n)])
    widths = (n, m)
    side = 0  # 0: D is A's orientation, transforms[0] holds U's rows
    while True:
        _hermite(D, widths[side], transforms[side])
        if all(row.keys() <= {i} for i, row in enumerate(D)):
            break
        D = _transpose(D, widths[side])
        side = 1 - side
    U, Vt = transforms  # Vt holds the columns of V
    # Hermite pivots are positive and lead the rows, so the nonzero diagonal
    # entries come first.
    diagonal = [D[i].get(i, 0) for i in range(min(m, n))]
    rank = sum(1 for d in diagonal if d)
    for i in range(rank):
        for j in range(i + 1, rank):
            a, b = diagonal[i], diagonal[j]
            if b % a:
                g = math.gcd(a, b)
                s = pow(a // g, -1, b // g)
                t = (g - s * a) // b
                _combine(U, i, j, s, t, -b // g, a // g)
                _combine(Vt, i, j, 1, 1, -t * b // g, s * a // g)
                diagonal[i], diagonal[j] = g, a // g * b
    V = _transpose(Vt, n)
    return SmithNormalForm(
        nrows=m,
        ncols=n,
        U=[_dense(row, m) for row in U],
        V=[_dense(row, n) for row in V],
        Uinv=_inverse(U),
        Vinv=_inverse(V),
        diagonal=diagonal,
    )


# -- generic determinant ---------------------------------------------------------


def determinant_expansion(rows: Sequence[Sequence]):
    """Determinant by Laplace expansion with memoization on column subsets.

    Works over any commutative ring whose elements support +, -, * and
    truth-testing for zero; intended for small matrices.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    @lru_cache(maxsize=None)
    def minor(cols: tuple) -> object:
        i = n - len(cols)
        if not cols:
            return 1
        acc = None
        sign = 1
        for k, j in enumerate(cols):
            entry = rows[i][j]
            if entry:
                rest = cols[:k] + cols[k + 1:]
                contribution = entry * minor(rest)
                if sign < 0:
                    contribution = -contribution
                acc = contribution if acc is None else acc + contribution
            sign = -sign
        if acc is None:
            return 0
        return acc

    return minor(tuple(range(n)))
