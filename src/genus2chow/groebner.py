"""Strong Groebner bases over the integers for homogeneous ideals.

The rings in this package carry essential torsion (relations like 2*gamma = 0
and 3*alpha2 = 0), so field-coefficient bases are useless here.  A *strong*
basis over ZZ guarantees that every leading term of the ideal is divisible,
monomial and coefficient alike, by the leading term of some basis element.
Normal forms reduce every coefficient to its smallest nonnegative residue,
which makes them unique and path-independent.

The ideals are homogeneous, so an ideal's degree-d relation lattice I_d is
spanned by its degree-d generators and x_v times I_{d - w_v}, as in Lazard's
Macaulay-matrix route.  ``RingSpec.lattice`` eliminates each degree once, from
the Hermite bases of the degrees below, and keeps the bases on the spec as
sparse rows (``intlinalg.Row``) over the columns ``Ring`` owns
(``Ring.columns``; ``IntPolynomial.row``, ``IntPolynomial.rows`` and
``Ring.from_row`` convert): the one construction of I_d in the package, read
by membership and completion here and by every graded piece, kernel and
oracle comparison in ``graded``.  Membership needs no basis: p lies in I
exactly when each degree-d part of p lies in I_d (``RingSpec.contains``), and
``ideal_equal`` compares two presentations by mutual generator membership.

A basis is completed only where a normal form is read (``strong_groebner``):
it walks the pivots of the kept Hermite bases, one degree at a time, until
the critical pairs (s- and gcd-combinations) close, within a cap on the
monomial columns processed.  The reducer (below) certifies each completed
basis G of an ideal I twice, without reading the lattices: closure (every
s- and gcd-combination reduces to zero) and I ⊆ (G) (every generator
reduces to zero).  Nothing certifies (G) ⊆ I yet: that each kept element
lies in I rests on the elimination alone, so a completion fault could
enlarge the ideal that normal forms reduce by, though not the one
membership reads.

Reduction is row reduction over the columns ``Ring`` owns, as in Faugère's
F4 (``_reduce``, ``_reduce_row``), and a critical pair's combinations are
such rows too: the rows of its two elements shifted onto their lcm
(``IntPolynomial.row``) and combined by ``intlinalg._subtract``.
"""

from __future__ import annotations

from itertools import compress, count
from functools import cached_property
from math import gcd, inf, lcm
from operator import add, le, sub
from typing import Iterable, Sequence

from . import intlinalg
from .ring import IntPolynomial, Ring, RingMismatchError

# Completion raises once the monomial columns of its degrees, summed, pass
# this cap, which bounds its size, and so its time, in any number of
# variables.  Pipeline ideals close within 80 columns, small random ideals
# over three variables within about 300.  Forcing non-closure, the cap is
# reached in 0.1 to 0.3 s over two to five variables (one core, Python 3.11).
_MAX_COLUMNS = 2000


class StrongGroebnerBasis:
    """A completed, interreduced strong basis with unique normal forms.

    Its lead table lists (lead exps, lead coeff, tail) of each element,
    least lead coefficient first and then least leading monomial; the tail
    lists the element's other terms as (exps, coeff) pairs.  The sort is
    stable, so ties keep the order of the elements; ``_reduce_row`` takes
    the first lead that divides a term as its reducer.  The basis owns the
    table of reduction rows for those leads (see ``_reduce_row``)."""

    __slots__ = ("ring", "elements", "_leads", "_rows")

    def __init__(self, ring: Ring, elements: Sequence[IntPolynomial]):
        self.ring = ring
        self.elements = tuple(elements)
        table = []
        for g in self.elements:
            g.weighted_degree()  # raises InhomogeneousError; _reduce needs homogeneous leads
            table.append((*g.leading_term(), g))
        # Least monomial first is greatest descending key first; the second
        # sort, by coefficient, is stable, so it keeps that order within a tie.
        table.sort(key=lambda lead: ring.descending_key(lead[0]), reverse=True)
        table.sort(key=lambda lead: lead[1])
        self._leads = [
            (exps, coeff, [term for term in g.term_map().items() if term[0] != exps])
            for exps, coeff, g in table
        ]
        self._rows: dict[int, dict] = {}

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.elements)
        return f"StrongGroebnerBasis({inner})"

    def normal_form(self, p: IntPolynomial) -> IntPolynomial:
        """The unique fully reduced remainder of p; zero iff p is in the ideal."""
        if p.ring != self.ring:
            raise RingMismatchError(f"{p!r} is not over {self.ring!r}")
        return _reduce(p, self)

    def contains(self, p: IntPolynomial) -> bool:
        return not self.normal_form(p)

    def verify_complete(self) -> None:
        """Check closure: every s- and gcd-combination reduces to zero."""
        pair = _unclosed_pair(self)
        if pair:
            raise AssertionError(f"basis not closed: pair ({pair[0]}, {pair[1]})")


def _unclosed_pair(basis: StrongGroebnerBasis, above: int = -1, upto: float = inf):
    """The first pair of the basis's elements, with the lcm of their leading
    monomials of degree above ``above`` and at most ``upto``, that has a
    critical combination the basis does not reduce to zero; None when every
    such pair closes."""
    elements, degree = basis.elements, basis.ring.monomial_degree
    for i, f in enumerate(elements):
        fe = f.leading_term()[0]
        for g in elements[i + 1:]:
            d = degree(tuple(map(max, fe, g.leading_term()[0])))
            if above < d <= upto and any(
                any(_reduce_row(d, row, basis)) for row in _critical_combinations(f, g)
            ):
                return f, g
    return None


def _reduction_row(ring: Ring, d: int, j: int, leads):
    """How ``_reduce_row`` reduces column j of degree d: None when no lead
    divides that column's monomial, else the coefficient of the first lead
    that does and that lead's tail shifted onto the monomial, as (column,
    coefficient) pairs over ``Ring.columns(d)``."""
    mono = ring.monomials_of_degree(d)[j]
    for lexps, lcoeff, tail in leads:
        if all(map(le, lexps, mono)):
            break
    else:
        return None
    shift, columns = tuple(map(sub, mono, lexps)), ring.columns(d)
    return lcoeff, [(columns[tuple(map(add, shift, exps))], c) for exps, c in tail]


def _reduce_row(d: int, row: intlinalg.Row, basis: StrongGroebnerBasis) -> list[int]:
    """The residue of a degree-d lattice row by the basis's leads, as one
    list of integers over ``Ring.columns(d)``.

    The row is loaded into the list, whose columns are then scanned upward
    from the first nonzero one.  Columns run in descending monomial order,
    so the scan meets the greatest term first, and a shifted tail only
    reaches columns after the one it reduces.  A column is reduced by the
    first lead in the basis's lead table whose monomial divides it, the one
    with the least (lead coefficient, leading monomial), so the reducer is
    fixed whatever order the basis came in.  A step keeps the residue of the
    entry modulo the lead coefficient and subtracts the quotient times the
    shifted tail.

    The basis keeps its reduction rows per degree and column, filled as new
    columns are met: at most one entry per distinct monomial reduced.  A row
    depends on the monomial and the leads alone, so the table never changes
    a residue."""
    table = basis._rows.setdefault(d, {})
    dense = [0] * len(basis.ring.columns(d))
    for j, c in row.items():
        dense[j] = c
    # A list iterator reads each entry when it reaches it, so ``compress``
    # skips the zero columns, the entries the steps before have left included.
    for j in compress(range(len(dense)), dense):
        try:
            reducer = table[j]
        except KeyError:
            reducer = table[j] = _reduction_row(basis.ring, d, j, basis._leads)
        if reducer is not None:
            lcoeff, tail = reducer
            q, dense[j] = divmod(dense[j], lcoeff)
            if q:
                for k, x in tail:
                    dense[k] -= q * x
    return dense


def _reduce(p: IntPolynomial, basis: StrongGroebnerBasis) -> IntPolynomial:
    """Fully reduce p by the basis's leads, one degree at a time: each
    degree's row (``IntPolynomial.rows``) is reduced by ``_reduce_row`` and
    read back through ``Ring.monomials_of_degree``.  Each degree costs a
    list as long as its columns, and its first reduction enumerates them,
    however few terms p has.  Every reduction the package makes is at degree
    8 or less, over at most 95 columns, where this beats a heap of terms; but
    in the four-variable test-family ring the first normal form of
    lambda2^20 (degree 40, 6,391 columns) takes about 6 ms and a repeat
    0.4 ms, where a heap took 0.02 ms (one core, Python 3.11)."""
    rows, out = p.rows(), {}
    for d in sorted(rows, reverse=True):
        residue = _reduce_row(d, rows[d], basis)
        monomials = p.ring.monomials_of_degree(d)
        for j in compress(range(len(residue)), residue):
            out[monomials[j]] = residue[j]
    return IntPolynomial(p.ring, out, _trusted=True)


def _critical_combinations(f: IntPolynomial, g: IntPolynomial):
    """The gcd-polynomial of f and g (when neither leading coefficient
    divides the other) followed by their s-polynomial, as integer
    combinations of the lattice rows of f and g shifted onto the lcm of
    their leading monomials, over the columns of the lcm's degree."""
    (fe, fc), (ge, gc) = f.leading_term(), g.leading_term()
    lcm_exps = tuple(map(max, fe, ge))
    frow, grow = (p.row(tuple(map(sub, lcm_exps, exps))) for p, exps in ((f, fe), (g, ge)))
    if fc % gc and gc % fc:
        d = gcd(fc, gc)
        s = pow(fc // d, -1, abs(gc // d))  # s*fc + t*gc = d
        row = {j: s * x for j, x in frow.items()}
        intlinalg._subtract(row, (s * fc - d) // gc, grow)  # row = s*f + t*g
        yield row
    c = lcm(fc, gc)
    row = {j: c // fc * x for j, x in frow.items()}
    intlinalg._subtract(row, c // gc, grow)
    yield row


def strong_groebner(spec: RingSpec) -> StrongGroebnerBasis:
    """The reduced strong Groebner basis of a presentation's ideal.

    Degree by degree, it walks the pivots of the Hermite basis of I_d
    (``RingSpec.lattice``), whose columns are in descending monomial order: a
    row led by c*mu is kept unless an earlier kept lead divides mu with a
    coefficient that divides c; its tail is already reduced modulo the
    pivots.  The kept rows of degrees <= d reduce every element of I of
    degree <= d to zero, so only pairs whose lcm lies above d can fail to
    close.  From the largest generator degree on, each degree's kept rows
    make a basis, and the loop stops at the first d at which the pairs above
    it close on that basis.  The certificate then runs on the same basis,
    the one returned: the pairs whose lcm lies at or below d close, and
    every generator reduces to zero.  Passing ``_MAX_COLUMNS`` columns,
    summed over the degrees processed, raises RuntimeError before the
    degree that would pass it is eliminated.
    """
    ring = spec.ring
    top = max((d for d in spec.degrees if d is not None), default=0)
    leads: list[tuple] = []
    kept: list[IntPolynomial] = []
    columns = 0
    for d in count():
        monomials = ring.monomials_of_degree(d)
        columns += len(monomials)
        if columns > _MAX_COLUMNS:
            raise RuntimeError(
                f"Groebner completion reached the column cap {_MAX_COLUMNS} without closing"
            )
        for c, row in intlinalg.pivots(spec.lattice(d)):
            mu, coeff = monomials[c], row[c]
            if not any(coeff % k == 0 and all(map(le, e, mu)) for e, k in leads):
                leads.append((mu, coeff))
                kept.append(ring.from_row(d, row))
        if d >= top:
            basis = StrongGroebnerBasis(ring, kept)
            if not _unclosed_pair(basis, above=d):
                break
    pair = _unclosed_pair(basis, upto=d)
    if pair:
        raise AssertionError(f"completed basis not closed: pair ({pair[0]}, {pair[1]})")
    for g in spec.generators:
        if basis.normal_form(g):
            raise AssertionError("completed basis does not contain a generator")
    return basis


class RingSpec:
    """A graded ring presentation ZZ[vars]/I: a ring and the generators of
    its relation ideal I, homogeneous and over that ring.

    Degree-0 generators (integer constants) are allowed; they present
    coefficient reduction, which is how mod-p quotients are encoded.
    ``degrees`` holds each generator's weighted degree, None for zero.  This
    is the universal container for every Chow ring in the pipeline: it keeps
    the Hermite bases of I_d (``lattice``), which answer membership, and is
    the only place a strong basis is completed, for normal forms, and kept.
    Two presentations are equal when their rings and generators, in order,
    are.
    """

    __slots__ = ("ring", "generators", "degrees", "_lattices", "__dict__")

    def __init__(self, ring: Ring, generators: Iterable[IntPolynomial]):
        gens = tuple(generators)
        degrees = []
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError(f"generator {g!r} is not over {ring!r}")
            degrees.append(g.weighted_degree())  # raises InhomogeneousError on mixed degrees
        self.ring = ring
        self.generators = gens
        self.degrees = tuple(degrees)
        self._lattices: list[list[intlinalg.Row]] = []  # Hermite basis of I_d, by d

    @classmethod
    def build(cls, variables: Sequence[tuple], relation_texts: Sequence[str]) -> "RingSpec":
        ring = Ring(*variables)
        return cls(ring, [ring.parse(text) for text in relation_texts])

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.generators)
        return f"RingSpec({self.ring!r}, ({inner}))"

    def __eq__(self, other):
        return (
            isinstance(other, RingSpec)
            and self.ring == other.ring
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.ring, self.generators))

    @property
    def relations(self) -> "RingSpec":
        """The presentation itself, kept for ``bench/workloads.py``, which
        reads the generators through it."""
        return self

    def lattice(self, d: int) -> list[intlinalg.Row]:
        """The Hermite basis, as ``lattice_basis`` gives it, of the degree-d
        relation lattice I_d over ``ring.monomials_of_degree(d)``.

        I_d is spanned by the degree-d generators and, for each variable x_v
        of weight w_v, by x_v times the basis of I_{d - w_v}, so each degree
        is eliminated from the bases below it.  The presentation keeps the
        bases, so each of its degrees is eliminated once."""
        if d < 0:
            return []
        ring = self.ring
        kept = self._lattices
        while len(kept) <= d:
            e = len(kept)
            columns = ring.columns(e)
            rows = [g.row() for g, degree in zip(self.generators, self.degrees) if degree == e]
            for v, w in enumerate(ring.weights):
                if w <= e:
                    shifted = [
                        columns[exps[:v] + (exps[v] + 1,) + exps[v + 1:]]
                        for exps in ring.monomials_of_degree(e - w)
                    ]
                    rows.extend({shifted[j]: x for j, x in row.items()} for row in kept[e - w])
            kept.append(intlinalg.lattice_basis(rows, len(columns)))
        return kept[d]

    @cached_property
    def groebner(self) -> StrongGroebnerBasis:
        return strong_groebner(self)

    def normal_form(self, p: IntPolynomial) -> IntPolynomial:
        return self.groebner.normal_form(p)

    def contains(self, p: IntPolynomial) -> bool:
        """Whether p lies in I: each degree-d part of p (``IntPolynomial.rows``)
        lies in the kept lattice I_d (``intlinalg.lattice_coordinates``), so
        no basis is read or completed.  The cost grows with the degree, as
        I_d is eliminated from every degree below it: the 80 tests of
        ``verify --all`` are at degree 7 or less at every bound, but a first
        test at degree 16 takes 0.2 s in the test-family ring and 0.9 s in
        its ambient, against 6 and 0.4 ms through a completed basis."""
        if p.ring != self.ring:
            raise RingMismatchError(f"{p!r} is not over {self.ring!r}")
        return all(
            intlinalg.lattice_coordinates(self.lattice(d), row) is not None
            for d, row in p.rows().items()
        )

    def with_relations(self, *extra: IntPolynomial) -> "RingSpec":
        return RingSpec(self.ring, self.generators + extra)

    def parse(self, text: str) -> IntPolynomial:
        return self.ring.parse(text)


def ideal_equal(a: RingSpec, b: RingSpec) -> bool:
    """Mutual containment of generators, hence equality of the two
    presentations' ideals, read off each side's kept lattices up to the
    other side's largest generator degree; no basis is completed."""
    if a.ring != b.ring:
        raise RingMismatchError("ideals live over different rings")
    return all(map(b.contains, a.generators)) and all(map(a.contains, b.generators))
