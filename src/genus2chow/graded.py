"""Graded pieces of quotient rings as finitely generated abelian groups.

A degree-d piece of ZZ[x1..xk]/I is presented by the lattice of degree-d
multiples of the relation generators inside the free module on the degree-d
monomials; the Smith normal form of that lattice's Hermite basis yields the
free rank, the torsion invariants and explicit coordinates.  Kernels of
multiplication maps are lattices too, returned in each degree as Hermite
bases; two lattices are equal exactly when their Hermite bases are, so which
classes generate a kernel is for the caller to compare.  Only enumeration
takes a kernel's group structure.  The Groebner engine completes its bases
by Hermite elimination too, but on its own degree-by-degree lattices, and its
normal forms come from the polynomial reducer, so this route doubles as its
oracle: a class is zero in the graded piece exactly when its normal form
vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import intlinalg
from .groebner import RingSpec, shifted_row
from .ring import IntPolynomial, Ring, RingMismatchError


class InfiniteKernelError(ValueError):
    """Enumeration was requested for a kernel with positive free rank."""


def _monomial_index(monomials: Sequence[tuple]) -> dict[tuple, int]:
    return {m: i for i, m in enumerate(monomials)}


def _vector(index: dict[tuple, int], p: IntPolynomial) -> list[int]:
    vec = [0] * len(index)
    for exps, coeff in p.term_map().items():
        vec[index[exps]] = coeff
    return vec


def _shifted_vector(index: dict[tuple, int], terms: dict[tuple, int], shift: tuple) -> list[int]:
    """Coefficient vector of x^shift times a term map."""
    vec = [0] * len(index)
    for j, c in shifted_row(index, terms, shift).items():
        vec[j] = c
    return vec


def polynomial_of(ring: Ring, monomials: Sequence[tuple], vec: Sequence[int]) -> IntPolynomial:
    return IntPolynomial(ring, {m: c for m, c in zip(monomials, vec) if c})


def relation_rows(spec: RingSpec, d: int) -> tuple[list[tuple], list[list[int]]]:
    """Degree-d monomial basis and the lattice rows of degree-d relation multiples."""
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
        rows.extend(_shifted_vector(index, terms, mult) for mult in ring.monomials_of_degree(d - e))
    return monomials, rows


@dataclass(frozen=True)
class GradedPieceGroup:
    """One graded piece, as ZZ^free_rank plus cyclic torsion summands.

    ``basis_change`` maps coefficient vectors in the monomial basis to
    Smith-normal coordinates (vector times matrix); coordinate i is read
    modulo ``diagonal[i]`` (0 meaning a free coordinate).  Only polynomials
    over ``ring`` have coordinates.
    """

    ring: Ring
    degree: int
    monomial_basis: tuple[tuple, ...]
    free_rank: int
    torsion_invariants: tuple[int, ...]
    basis_change: tuple[tuple, ...]
    diagonal: tuple[int, ...]

    @cached_property
    def _index(self) -> dict[tuple, int]:
        return _monomial_index(self.monomial_basis)

    def coordinates(self, p: IntPolynomial) -> list[int]:
        if p.ring != self.ring:
            raise RingMismatchError(f"{p!r} is not over {self.ring!r}")
        deg = p.weighted_degree()
        if deg is not None and deg != self.degree:
            raise ValueError(f"expected degree {self.degree}, got {deg}")
        return intlinalg.matvec_left(_vector(self._index, p), self.basis_change)

    def residue(self, p: IntPolynomial) -> tuple[int, ...]:
        """Canonical coordinates: entry i reduced modulo diagonal[i]."""
        coords = self.coordinates(p)
        return tuple(
            c % d if d else c for c, d in zip(coords, self.diagonal)
        )

    def is_zero(self, p: IntPolynomial) -> bool:
        return not any(self.residue(p))


def _smith_quotient(
    rows: Sequence[Sequence[int]], n: int
) -> tuple[list[int], intlinalg.Matrix, intlinalg.Matrix]:
    """The diagonal (padded to length n), V and Vinv of ZZ^n / <rows>.

    The Smith form is taken of the Hermite basis of the rows, which has full
    row rank, so it sees at most n rows and its entries stay small.
    """
    snf = intlinalg.smith_normal_form(intlinalg.lattice_basis(rows, n), ncols=n)
    return list(snf.diagonal) + [0] * (n - len(snf.diagonal)), snf.V, snf.Vinv


def graded_piece(spec: RingSpec, d: int) -> GradedPieceGroup:
    """The degree-d piece of the quotient ring, by Smith normal form."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    monomials, rows = relation_rows(spec, d)
    diagonal, basis_change, _ = _smith_quotient(rows, len(monomials))
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
    ring = spec.ring
    for exps, coords in zip(piece.monomial_basis, piece.basis_change):
        vanishes = not any(c % m if m else c for c, m in zip(coords, piece.diagonal))
        if vanishes != spec.contains(IntPolynomial(ring, {exps: 1}, _trusted=True)):
            return False
    return True


# -- kernels of multiplication maps -----------------------------------------------


def _kernel_lattice(
    spec: RingSpec, m: IntPolynomial, d: int
) -> tuple[list[tuple], list[list[int]], list[list[int]]]:
    """Monomial basis in degree d, rows of the degree-d relation lattice, and
    the Hermite basis (as ``lattice_basis`` gives it) of the lattice of
    vectors whose product with m lies in the relation lattice one degree up."""
    monomials, rel_rows = relation_rows(spec, d)
    n = len(monomials)
    if not m:
        return monomials, rel_rows, intlinalg.identity(n)
    e = m.weighted_degree()
    target_monomials, target_rel_rows = relation_rows(spec, d + e)
    target_index = _monomial_index(target_monomials)
    terms = m.term_map()
    mult_rows = [_shifted_vector(target_index, terms, exps) for exps in monomials]
    stacked = mult_rows + target_rel_rows
    kernel = intlinalg.left_kernel(stacked, ncols=len(target_monomials))
    projected = [row[:n] for row in kernel]
    basis = intlinalg.lattice_basis(projected, n)
    return monomials, rel_rows, basis


def _quotient_group(
    ring: Ring,
    monomials: Sequence[tuple],
    lattice: list[list[int]],
    sub_rows: list[list[int]],
) -> tuple[int, tuple[int, ...], list[IntPolynomial], list[int]]:
    """Structure of lattice / <sub_rows> with polynomial lifts of generators;
    ``lattice`` is a Hermite basis, so coordinates need no factoring."""
    coeff_rows = [intlinalg.lattice_coordinates(lattice, row) for row in sub_rows]
    if None in coeff_rows:
        raise AssertionError("sublattice is not contained in the lattice")
    diagonal, _, vinv = _smith_quotient(coeff_rows, len(lattice))
    generators = []
    orders = []
    for i, dval in enumerate(diagonal):
        if dval == 1:
            continue
        vec = intlinalg.matvec_left(vinv[i], lattice)
        generators.append(polynomial_of(ring, monomials, vec))
        orders.append(dval)
    free_rank = sum(1 for dv in diagonal if dv == 0)
    torsion = tuple(dv for dv in diagonal if dv >= 2)
    return free_rank, torsion, generators, orders


def multiplication_kernel(spec: RingSpec, m: IntPolynomial, d_max: int) -> list[intlinalg.Matrix]:
    """Kernel of multiplication by m on each graded piece of degree <= d_max:
    in degree d, the Hermite basis of the lattice of vectors, over
    ``ring.monomials_of_degree(d)``, whose product with m lies in the
    relations.  It contains the degree-d relation lattice."""
    return [_kernel_lattice(spec, m, d)[2] for d in range(d_max + 1)]


def enumerate_kernel_elements(
    spec: RingSpec, m: IntPolynomial, d: int
) -> list[IntPolynomial]:
    """All nonzero elements of the degree-d kernel of multiplication by m,
    as canonical normal forms.

    Raises InfiniteKernelError when the kernel piece has positive free rank.
    """
    ring = spec.ring
    monomials, rel_rows, kernel_basis = _kernel_lattice(spec, m, d)
    free_rank, torsion, gens, orders = _quotient_group(
        ring, monomials, kernel_basis, rel_rows
    )
    if free_rank:
        raise InfiniteKernelError(
            f"kernel in degree {d} has free rank {free_rank}; not enumerable"
        )
    elements: set[IntPolynomial] = set()
    combos = [[]]
    for order in orders:
        combos = [c + [k] for c in combos for k in range(order)]
    for combo in combos:
        acc = ring.zero()
        for k, g in zip(combo, gens):
            acc = acc + k * g
        nf = spec.normal_form(acc)
        if nf:
            elements.add(nf)
    expected = 1
    for t in torsion:
        expected *= t
    if len(elements) != expected - 1:
        raise AssertionError("kernel classes did not reduce to distinct normal forms")
    return sorted(
        elements,
        key=lambda p: [(ring.monomial_key(e), c) for e, c in p.terms()],
        reverse=True,
    )
