"""Graded pieces of quotient rings as finitely generated abelian groups.

A degree-d piece of ZZ[x1..xk]/I is presented by the relation lattice I_d
inside the free module on the degree-d monomials.  ``relation_lattice``
gives its Hermite basis, built degree by degree as Lazard's Macaulay route
does: the rows of degree d are the degree-d generators and x_v times the
basis of I_{d - w_v}, and each degree is eliminated once per presentation,
which keeps the bases.  The Smith normal form of that basis yields the free
rank, the torsion invariants and explicit coordinates; each row with a unit
pivot splits off as a trivial summand, so the Smith form is taken of the
other rows on the other columns only, and certified.  The kernel of
multiplication by m in degree d is a lattice too: the preimage, under the
rows of multiplication by m, of the relation lattice one degree up,
returned as a Hermite basis.  The unit-pivot rows of both relation bases
clear their own columns, so the preimage is solved on the other columns
only and lifted.  Two lattices are equal exactly when their Hermite bases
are, so which classes generate a kernel is for the caller to compare.
Enumeration reads a kernel's cosets off a Hermite basis; the Smith form
serves ``graded_piece`` only.  The Groebner engine completes its bases by
the same elimination, ``intlinalg._hermite``, on degree-by-degree lattices
of its own: ``groebner.strong_groebner`` keeps its own loop and does not
read these bases, so ``oracle-agreement`` still compares two separately
written constructions of I_d.  The Groebner engine takes its normal forms
from the polynomial reducer; this route cross-checks it (a class is zero in
the graded piece exactly when its normal form vanishes) but is not
independent of it.  What ``groebner`` certifies, and what it does not, its
module docstring says.
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


def relation_lattice(spec: RingSpec, d: int) -> intlinalg.Matrix:
    """The Hermite basis, as ``lattice_basis`` gives it, of the degree-d
    relation lattice I_d over ``ring.monomials_of_degree(d)``.

    I_d is spanned by the degree-d generators and, for each variable x_v of
    weight w_v, by x_v times the basis of I_{d - w_v}, so each degree is
    eliminated from the bases below it.  The bases are kept on the
    presentation, in its ``relation_lattices`` list indexed by degree, so
    each degree of a presentation is eliminated once."""
    if d < 0:
        return []
    ring = spec.ring
    zero = (0,) * ring.nvars
    kept = vars(spec).setdefault("relation_lattices", [])
    while len(kept) <= d:
        e = len(kept)
        monomials = ring.monomials_of_degree(e)
        index = _monomial_index(monomials)
        rows = [
            shifted_row(index, g.term_map(), zero)
            for g in spec.relations.generators
            if g and g.weighted_degree() == e
        ]
        for v, w in enumerate(ring.weights):
            if w <= e:
                columns = [
                    index[exps[:v] + (exps[v] + 1,) + exps[v + 1:]]
                    for exps in ring.monomials_of_degree(e - w)
                ]
                rows.extend(
                    {columns[j]: x for j, x in enumerate(row) if x} for row in kept[e - w]
                )
        kept.append(intlinalg.lattice_basis(rows, len(monomials)))
    return kept[d]


def _split_at_unit_pivots(basis: intlinalg.Matrix) -> tuple[dict[int, list[int]], intlinalg.Matrix]:
    """The rows of a Hermite basis with pivot 1, by pivot column, and its
    other rows.  The basis is reduced, so the column of a unit pivot is 0 in
    every other row."""
    units, others = {}, []
    c = 0
    for row in basis:
        while not row[c]:  # pivot columns strictly increase
            c += 1
        if row[c] == 1:
            units[c] = row
        else:
            others.append(row)
    return units, others


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


def _smith_quotient(basis: intlinalg.Matrix, n: int) -> tuple[list[int], intlinalg.Matrix]:
    """The diagonal (padded to length n) and V of ZZ^n / <basis>, for a
    Hermite basis as ``lattice_basis`` gives it.

    x minus x_c times the basis row of the unit pivot in column c is 0 in
    column c and lies in the lattice exactly when x does.  Each such row
    thus splits off as a summand ZZ/1, and the Smith form U'·H'·V' = D' is
    taken of the block H' of the other rows on the other columns only, which
    has full row rank, and certified.  V carries, in the row of column c,
    e_k for the k-th unit pivot and minus that basis row, restricted to the
    other columns, times V'; in the row of any other column, the matching
    row of V'.  It is block triangular with the identity and V' on its
    diagonal, so it needs no check of its own, and the diagonal is 1 for
    each unit pivot followed by D'.
    """
    units, others = _split_at_unit_pivots(basis)
    columns = [j for j in range(n) if j not in units]
    block = [[row[j] for j in columns] for row in others]
    snf = intlinalg.smith_normal_form(block, ncols=len(columns))
    snf.verify(block)
    k = len(units)
    V: intlinalg.Matrix = [[]] * n
    for i, (c, row) in enumerate(units.items()):
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
    monomials = spec.ring.monomials_of_degree(d)
    diagonal, basis_change = _smith_quotient(relation_lattice(spec, d), len(monomials))
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
    relation lattice one degree up: that lattice's preimage under m.

    It is solved on the columns without a unit pivot.  The unit-pivot rows
    of I_d lie in the kernel and clear their own columns from any vector,
    so the kernel is spanned by them and by the kernel vectors on the other
    columns R.  Likewise the unit-pivot rows of I_{d+e} clear their columns
    from a product, which then lies in I_{d+e} exactly when its rest, on the
    other columns R', lies in the span of the other basis rows there.  So
    the multiplication rows of R, so cleared, meet those rows on R' alone,
    and their preimage is lifted back to the columns R."""
    ring = spec.ring
    monomials = ring.monomials_of_degree(d)
    target = d + (m.weighted_degree() or 0)
    units, _ = _split_at_unit_pivots(relation_lattice(spec, d))
    clearing, others = _split_at_unit_pivots(relation_lattice(spec, target))
    index = _monomial_index(ring.monomials_of_degree(target))
    rest = [j for j in range(len(index)) if j not in clearing]
    free = [j for j in range(len(monomials)) if j not in units]
    terms = m.term_map()
    mult_rows = []
    for j in free:
        product = shifted_row(index, terms, monomials[j])
        row = [product.get(c, 0) for c in rest]
        for c, x in product.items():
            if c in clearing:
                row = [y - x * clearing[c][k] for y, k in zip(row, rest)]
        mult_rows.append(row)
    small = intlinalg.preimage_basis(
        mult_rows, [[row[k] for k in rest] for row in others], len(rest)
    )
    lifted = [{j: y for j, y in zip(free, x) if y} for x in small]
    return intlinalg.lattice_basis(list(units.values()) + lifted, len(monomials))


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

    The rows of the relation lattice's Hermite basis, in coordinates over the
    kernel lattice's Hermite basis K, span a sublattice with Hermite basis H.
    When H has full rank, the vectors x with 0 <= x_i < H[i][i] give one
    coset each, so the classes x @ K are the kernel piece, each once.
    Raises InfiniteKernelError when the kernel piece has positive free rank.
    """
    ring = spec.ring
    monomials = ring.monomials_of_degree(d)
    kernel_basis = _kernel_lattice(spec, m, d)
    rank = len(kernel_basis)
    coords = [
        intlinalg.lattice_coordinates(kernel_basis, row) for row in relation_lattice(spec, d)
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
