"""Graded pieces of quotient rings as finitely generated abelian groups.

A degree-d piece of ZZ[x1..xk]/I is presented by the lattice of degree-d
multiples of the relation generators inside the free module on the degree-d
monomials; ``relation_rows`` gives them as sparse {column: entry} rows,
which the lattice routines of ``intlinalg`` take as they are.  The Smith
normal form of that lattice's Hermite basis yields the free rank, the
torsion invariants and explicit coordinates; each row with a unit pivot
splits off as a trivial summand, so the Smith form is taken of the other
rows on the other columns only, and certified.  The kernel of
multiplication by m in degree d is a lattice too: the preimage, under the
rows of multiplication by m, of the relation lattice one degree up, returned
as a Hermite basis; two lattices are equal exactly when their Hermite bases
are, so which classes generate a kernel is for the caller to compare.
Enumeration reads a kernel's cosets off a Hermite basis; the Smith form
serves ``graded_piece`` only.  The Groebner engine completes its bases by
the same elimination, ``intlinalg._hermite``, on its own degree-by-degree
lattices, and takes its normal forms from the polynomial reducer; this route
cross-checks it (a class is zero in the graded piece exactly when its normal
form vanishes) but is not independent of it.  What ``groebner`` certifies,
and what it does not, its module docstring says.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from . import intlinalg
from .groebner import RingSpec, shifted_row
from .ring import IntPolynomial, Ring, RingMismatchError


class InfiniteKernelError(ValueError):
    """Enumeration was requested for a kernel with positive free rank."""


def _monomial_index(monomials: Sequence[tuple]) -> dict[tuple, int]:
    return {m: i for i, m in enumerate(monomials)}


def polynomial_of(ring: Ring, monomials: Sequence[tuple], vec: Sequence[int]) -> IntPolynomial:
    return IntPolynomial(ring, {m: c for m, c in zip(monomials, vec) if c})


def relation_rows(spec: RingSpec, d: int) -> tuple[list[tuple], list[dict[int, int]]]:
    """Degree-d monomial basis and the lattice rows of degree-d relation
    multiples, sparse as {column: entry} over that basis."""
    ring = spec.ring
    monomials = ring.monomials_of_degree(d)
    index = _monomial_index(monomials)
    rows = []
    for g in spec.relations.generators:
        if not g:
            continue
        e = g.weighted_degree()
        if e > d:
            continue
        terms = g.term_map()
        rows.extend(shifted_row(index, terms, mult) for mult in ring.monomials_of_degree(d - e))
    return monomials, rows


@dataclass(frozen=True)
class GradedPieceGroup:
    """One graded piece, as ZZ^free_rank plus cyclic torsion summands.

    ``basis_change`` maps coefficient vectors in the monomial basis to
    Smith-normal coordinates (vector times matrix); coordinate i is read
    modulo ``diagonal[i]`` (0 meaning a free coordinate).  Only polynomials
    of degree ``degree`` over ``ring`` are read.
    """

    ring: Ring
    degree: int
    monomial_basis: tuple[tuple, ...]
    free_rank: int
    torsion_invariants: tuple[int, ...]
    basis_change: tuple[tuple, ...]
    diagonal: tuple[int, ...]

    def is_zero(self, p: IntPolynomial) -> bool:
        """Whether every Smith-normal coordinate of p vanishes modulo its
        diagonal entry."""
        if p.ring != self.ring:
            raise RingMismatchError(f"{p!r} is not over {self.ring!r}")
        deg = p.weighted_degree()
        if deg is not None and deg != self.degree:
            raise ValueError(f"expected degree {self.degree}, got {deg}")
        terms = p.term_map()
        vec = [terms.get(m, 0) for m in self.monomial_basis]
        return self._vanishes(intlinalg.matvec_left(vec, self.basis_change))

    def _vanishes(self, coords: Sequence[int]) -> bool:
        return not any(c % d if d else c for c, d in zip(coords, self.diagonal))


def _smith_quotient(rows: Sequence[intlinalg.Row], n: int) -> tuple[list[int], intlinalg.Matrix]:
    """The diagonal (padded to length n) and V of ZZ^n / <rows>.

    The rows' Hermite basis is reduced, so the column of a unit pivot is 0
    in every other basis row: x minus x_c times the row of the unit pivot in
    column c is 0 in column c and lies in the lattice exactly when x does.
    Each such row thus splits off as a summand ZZ/1, and the Smith form
    U'·H'·V' = D' is taken of the block H' of the other rows on the other
    columns only, which has full row rank, and certified.  V carries, in the
    row of column c, e_k for the k-th unit pivot and minus that basis row,
    restricted to the other columns, times V'; in the row of any other
    column, the matching row of V'.  It is block triangular with the
    identity and V' on its diagonal, so it needs no check of its own, and
    the diagonal is 1 for each unit pivot followed by D'.
    """
    units, others = [], []
    c = 0
    for row in intlinalg.lattice_basis(rows, n):
        while not row[c]:  # pivot columns strictly increase
            c += 1
        (units if row[c] == 1 else others).append((c, row))
    unit_columns = {c for c, _ in units}
    columns = [j for j in range(n) if j not in unit_columns]
    block = [[row[j] for j in columns] for _, row in others]
    snf = intlinalg.smith_normal_form(block, ncols=len(columns))
    snf.verify(block)
    k = len(units)
    V: intlinalg.Matrix = [[]] * n
    for i, (c, row) in enumerate(units):
        V[c] = [0] * k + intlinalg.matvec_left([-row[j] for j in columns], snf.V)
        V[c][i] = 1
    for j, v_row in zip(columns, snf.V):
        V[j] = [0] * k + v_row
    diagonal = [1] * k + snf.diagonal
    return diagonal + [0] * (n - len(diagonal)), V


def graded_piece(spec: RingSpec, d: int) -> GradedPieceGroup:
    """The degree-d piece of the quotient ring, by Smith normal form."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    monomials, rows = relation_rows(spec, d)
    diagonal, basis_change = _smith_quotient(rows, len(monomials))
    return GradedPieceGroup(
        ring=spec.ring,
        degree=d,
        monomial_basis=tuple(monomials),
        free_rank=sum(1 for x in diagonal if x == 0),
        torsion_invariants=tuple(x for x in diagonal if x >= 2),
        basis_change=tuple(tuple(r) for r in basis_change),
        diagonal=tuple(diagonal),
    )


def membership_matches_normal_form(spec: RingSpec, d: int) -> bool:
    """Oracle agreement in degree d: for every monomial, vanishing in the
    graded piece coincides with vanishing of the Groebner normal form.  A
    monomial's Smith coordinates are its row of ``basis_change``."""
    piece = graded_piece(spec, d)
    for exps, coords in zip(piece.monomial_basis, piece.basis_change):
        monomial = IntPolynomial(spec.ring, {exps: 1}, _trusted=True)
        if piece._vanishes(coords) != spec.contains(monomial):
            return False
    return True


# -- kernels of multiplication maps -----------------------------------------------


def _kernel_lattice(spec: RingSpec, m: IntPolynomial, d: int) -> list[list[int]]:
    """The Hermite basis (as ``lattice_basis`` gives it) of the vectors, over
    ``ring.monomials_of_degree(d)``, whose product with m lies in the
    relation lattice one degree up: that lattice's preimage under m."""
    monomials = spec.ring.monomials_of_degree(d)
    target_monomials, target_rel_rows = relation_rows(spec, d + (m.weighted_degree() or 0))
    index = _monomial_index(target_monomials)
    terms = m.term_map()
    mult_rows = [shifted_row(index, terms, exps) for exps in monomials]
    return intlinalg.preimage_basis(mult_rows, target_rel_rows, len(target_monomials))


def multiplication_kernel(spec: RingSpec, m: IntPolynomial, d_max: int) -> list[intlinalg.Matrix]:
    """Kernel of multiplication by m on each graded piece of degree <= d_max:
    in degree d, the Hermite basis of the lattice of vectors, over
    ``ring.monomials_of_degree(d)``, whose product with m lies in the
    relations.  It contains the degree-d relation lattice."""
    return [_kernel_lattice(spec, m, d) for d in range(d_max + 1)]


def enumerate_kernel_elements(
    spec: RingSpec, m: IntPolynomial, d: int
) -> list[IntPolynomial]:
    """All nonzero elements of the degree-d kernel of multiplication by m,
    as canonical normal forms.

    The relation rows, in coordinates over the kernel lattice's Hermite basis
    K, span a sublattice with Hermite basis H.  When H has full rank, the
    vectors x with 0 <= x_i < H[i][i] give one coset each, so the classes
    x @ K are the kernel piece, each once.
    Raises InfiniteKernelError when the kernel piece has positive free rank.
    """
    ring = spec.ring
    monomials, rel_rows = relation_rows(spec, d)
    kernel_basis = _kernel_lattice(spec, m, d)
    rank = len(kernel_basis)
    columns = range(len(monomials))
    coords = [
        intlinalg.lattice_coordinates(kernel_basis, [row.get(j, 0) for j in columns])
        for row in rel_rows
    ]
    if None in coords:
        raise AssertionError("relation lattice is not contained in the kernel")
    H = intlinalg.lattice_basis(coords, rank)
    if len(H) < rank:
        raise InfiniteKernelError(
            f"kernel in degree {d} has free rank {rank - len(H)}; not enumerable"
        )
    diagonal = [row[i] for i, row in enumerate(H)]
    elements: set[IntPolynomial] = set()
    for x in itertools.product(*map(range, diagonal)):
        vec = intlinalg.matvec_left(x, kernel_basis)
        nf = spec.normal_form(polynomial_of(ring, monomials, vec))
        if nf:
            elements.add(nf)
    if len(elements) != math.prod(diagonal) - 1:
        raise AssertionError("kernel classes did not reduce to distinct normal forms")
    return sorted(
        elements,
        key=lambda p: [(ring.monomial_key(e), c) for e, c in p.terms()],
        reverse=True,
    )
