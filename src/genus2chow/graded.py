"""Graded pieces of quotient rings as finitely generated abelian groups.

A degree-d piece of ZZ[x1..xk]/I is presented by the relation lattice I_d
inside the free module on the degree-d monomials.  Its Hermite basis comes
from ``RingSpec.lattice`` in ``groebner``, which eliminates each degree
once per presentation and keeps the bases; Groebner completion reads the
same bases.  Vectors and basis rows alike are sparse {column: entry} rows
(``intlinalg.Row``) over columns that ``Ring`` owns: a polynomial becomes a
row through ``IntPolynomial.row``, and a row a polynomial through
``Ring.from_row``.  Each row of that basis with pivot 1 clears its own
column from any vector (``_clear``) and splits off as a trivial summand, so
a graded piece is presented on the other columns: the certified Smith form
of the other rows there, the one dense block, gives the free rank, the
torsion invariants and the coordinates of a cleared vector.  The kernel of
multiplication by m in degree d is a lattice too: the preimage, under the
rows of multiplication by m, of the relation lattice one degree up,
returned as a Hermite basis.  The same clearing empties the unit columns
one degree up from the multiplication rows, which then meet the other rows
there on their own columns; the preimage is solved and then lifted.  Two
lattices are equal exactly when their Hermite bases are, so which classes
generate a kernel is for the caller to compare.  Enumeration reads a
kernel's cosets off a Hermite basis; the Smith form serves ``graded_piece``
only.

``oracle-agreement`` compares the Groebner engine with the one lattice in
one pass per degree: the Hermite pivots against c_mu, each lead coefficient
of the Groebner basis spread by gcd over the columns its leading monomial
divides, and vanishing in the graded piece (``_vanishes``) against a zero
residue from the reducer (``groebner._reduce_row``) on every monomial and
every Hermite row with a pivot other than 1.  A kept lattice that has lost
relations is caught: completion's certificate never reads the lattices, so
either it fails or the basis generates I and the pivots show the loss.  A kept lattice that has gained relations outside I at or below
completion's closing degree is read by both sides alike, so the oracle
cannot see it: nothing certifies (G) ⊆ I yet (see ``groebner``).
"""

from __future__ import annotations

import itertools
import math
from operator import add
from typing import NamedTuple, Sequence

from . import intlinalg
from .groebner import RingSpec, _reduce_row
from .ring import IntPolynomial, Ring, RingMismatchError


class InfiniteKernelError(ValueError):
    """Enumeration was requested for a kernel with positive free rank."""


def _split_at_unit_pivots(
    basis: Sequence[intlinalg.Row],
) -> tuple[dict[int, intlinalg.Row], list[intlinalg.Row]]:
    """The rows of a Hermite basis with pivot 1, by pivot column, and its
    other rows.  The basis is reduced, so the column of a unit pivot is 0 in
    every other row."""
    units = {c: row for c, row in intlinalg.pivots(basis) if row[c] == 1}
    return units, [row for c, row in intlinalg.pivots(basis) if c not in units]


def _clear(vector: intlinalg.Row, units: dict[int, intlinalg.Row]) -> intlinalg.Row:
    """A vector minus each of its unit-pivot entries times that pivot's
    row.  It is 0 on the unit columns, so what is left lies in the span of
    the other rows exactly when the vector lies in the lattice."""
    out = dict(vector)
    for c, x in vector.items():
        if c in units:
            intlinalg._subtract(out, x, units[c])
    return out


class GradedPieceGroup(NamedTuple):
    """One graded piece, as ZZ^free_rank plus cyclic torsion summands.

    ``units`` holds the Hermite rows of I_d with pivot 1, by pivot column,
    and ``rest`` the other columns; ``V`` and ``diagonal`` come from the
    certified Smith form U'·H'·V' = D' of the other rows on ``rest``: V' and
    the diagonal of D', padded with zeros.  ``_vanishes``, the one read of
    a row, for ``is_zero`` and the oracle alike, clears it (``_clear``) and
    reads its entries on ``rest`` times V', coordinate i modulo
    ``diagonal[i]`` (0 meaning a free coordinate).
    """

    ring: Ring
    degree: int
    free_rank: int
    torsion_invariants: tuple[int, ...]
    units: dict[int, intlinalg.Row]
    rest: tuple[int, ...]
    V: intlinalg.Matrix
    diagonal: tuple[int, ...]

    def is_zero(self, p: IntPolynomial) -> bool:
        """Whether p vanishes in the piece, read by ``_vanishes``."""
        if p.ring != self.ring:
            raise RingMismatchError(f"{p!r} is not over {self.ring!r}")
        deg = p.weighted_degree()
        if deg is not None and deg != self.degree:
            raise ValueError(f"expected degree {self.degree}, got {deg}")
        return self._vanishes(p.row())

    def _vanishes(self, row: intlinalg.Row) -> bool:
        """Whether a row over ``Ring.columns(degree)`` lies in I_d."""
        coords = [0] * len(self.diagonal)
        for j, x in _clear(row, self.units).items():
            coords = [c + x * b for c, b in zip(coords, self.V[self.rest.index(j)])]
        return not any(c % d if d else c for c, d in zip(coords, self.diagonal))


def graded_piece(spec: RingSpec, d: int) -> GradedPieceGroup:
    """The degree-d piece of the quotient ring, by Smith normal form."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    units, others = _split_at_unit_pivots(spec.lattice(d))
    rest = [j for j in range(len(spec.ring.monomials_of_degree(d))) if j not in units]
    block = [[row.get(j, 0) for j in rest] for row in others]
    snf = intlinalg.smith_normal_form(block, ncols=len(rest))
    snf.verify(block)
    diagonal = snf.diagonal + [0] * (len(rest) - len(snf.diagonal))
    return GradedPieceGroup(
        ring=spec.ring,
        degree=d,
        free_rank=diagonal.count(0),
        torsion_invariants=tuple(x for x in diagonal if x >= 2),
        units=units,
        rest=tuple(rest),
        V=snf.V,
        diagonal=tuple(diagonal),
    )


def _lead_gcds(spec: RingSpec, d: int) -> intlinalg.Row:
    """c_mu by column mu of degree d: each Groebner basis element's lead
    coefficient spread by gcd over its leading monomial's multiples."""
    ring, columns = spec.ring, spec.ring.columns(d)
    out: intlinalg.Row = {}
    for g in spec.groebner.elements:
        exps, k = g.leading_term()
        for m in ring.monomials_of_degree(d - ring.monomial_degree(exps)):
            j = columns[tuple(map(add, exps, m))]
            out[j] = math.gcd(out.get(j, 0), k)
    return out


def membership_matches_normal_form(spec: RingSpec, d: int) -> bool:
    """Oracle agreement in degree d, in one pass: the Hermite pivots of I_d,
    by column, are c_mu (``_lead_gcds``), and the graded piece and the
    Groebner reducer agree on which rows vanish, for every monomial and every
    Hermite row with a pivot other than 1.  No monomial of degree 8 or less
    lies in a pipeline ideal, so only those rows show a Smith diagonal entry
    read too large, or a lost basis element whose lead coefficient is the gcd
    of the other leads dividing its monomial."""
    piece, basis, lattice = graded_piece(spec, d), spec.groebner, spec.lattice(d)
    rows = _split_at_unit_pivots(lattice)[1] + [{j: 1} for j in range(len(spec.ring.columns(d)))]
    return {c: row[c] for c, row in intlinalg.pivots(lattice)} == _lead_gcds(spec, d) and all(
        piece._vanishes(row) == (not any(_reduce_row(d, row, basis))) for row in rows
    )


# -- kernels of multiplication maps -----------------------------------------------


def _kernel_lattice(spec: RingSpec, m: IntPolynomial, d: int) -> list[intlinalg.Row]:
    """The Hermite basis (as ``lattice_basis`` gives it) of the vectors, over
    ``ring.monomials_of_degree(d)``, whose product with m lies in the
    relation lattice one degree up: that lattice's preimage under m.

    The unit-pivot rows of I_d lie in the kernel and clear their own
    columns, so the kernel is spanned by them and by its vectors on the
    other columns.  Those columns' products with m, cleared by the
    unit-pivot rows one degree up (``_clear``), meet the other rows there,
    which vanish on the cleared columns, and their preimage is lifted back."""
    monomials = spec.ring.monomials_of_degree(d)
    target = d + (m.weighted_degree() or 0)
    units, _ = _split_at_unit_pivots(spec.lattice(d))
    clearing, others = _split_at_unit_pivots(spec.lattice(target))
    free = [j for j in range(len(monomials)) if j not in units]
    mult_rows = [_clear(m.row(monomials[j]), clearing) for j in free]
    small = intlinalg.preimage_basis(mult_rows, others, len(spec.ring.columns(target)))
    lifted = [{free[i]: y for i, y in x.items()} for x in small]
    return intlinalg.lattice_basis(list(units.values()) + lifted, len(monomials))


def multiplication_kernel(
    spec: RingSpec, m: IntPolynomial, d_max: int
) -> list[list[intlinalg.Row]]:
    """Kernel of multiplication by m on each graded piece of degree <= d_max:
    in degree d, the Hermite basis of the lattice of vectors, over
    ``ring.monomials_of_degree(d)``, whose product with m lies in the
    relations.  It contains the degree-d relation lattice."""
    return [_kernel_lattice(spec, m, d) for d in range(d_max + 1)]


def enumerate_kernel_elements(
    spec: RingSpec, m: IntPolynomial, d: int
) -> list[IntPolynomial]:
    """All nonzero elements of the degree-d kernel of multiplication by m,
    as normal forms sorted by their text.

    The rows of the relation lattice's Hermite basis, in coordinates over the
    kernel lattice's Hermite basis K, span a sublattice with Hermite basis H.
    When H has full rank, the vectors x with 0 <= x_i < H[i][i] give one
    coset each, so the classes x @ K are the kernel piece, each once.
    Raises InfiniteKernelError when the kernel piece has positive free rank.
    """
    kernel_basis = _kernel_lattice(spec, m, d)
    rank = len(kernel_basis)
    coords = [
        intlinalg.lattice_coordinates(kernel_basis, row) for row in spec.lattice(d)
    ]
    if None in coords:
        raise AssertionError("relation lattice is not contained in the kernel")
    H = intlinalg.lattice_basis(coords, rank)
    if len(H) < rank:
        raise InfiniteKernelError(
            f"kernel in degree {d} has free rank {rank - len(H)}; not enumerable"
        )
    diagonal = [row[c] for c, row in intlinalg.pivots(H)]
    elements: set[IntPolynomial] = set()
    for x in itertools.product(*map(range, diagonal)):
        vec: intlinalg.Row = {}
        for q, row in zip(x, kernel_basis):
            if q:
                intlinalg._subtract(vec, -q, row)
        nf = spec.normal_form(spec.ring.from_row(d, vec))
        if nf:
            elements.add(nf)
    if len(elements) != math.prod(diagonal) - 1:
        raise AssertionError("kernel classes did not reduce to distinct normal forms")
    return sorted(elements, key=str)
