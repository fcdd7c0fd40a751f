"""Strong Groebner bases over the integers for homogeneous ideals.

The rings in this package carry essential torsion (relations like 2*gamma = 0
and 3*alpha2 = 0), so field-coefficient bases are useless here.  A *strong*
basis over ZZ guarantees that every leading term of the ideal is divisible,
monomial and coefficient alike, by the leading term of some basis element.
Normal forms reduce every coefficient to its smallest nonnegative residue,
which makes them unique and path-independent.

The ideals are homogeneous, so an ideal's degree-d relation lattice I_d is
spanned by its degree-d generators and x_v times I_{d - w_v}, as in Lazard's
Macaulay-matrix route.  ``Ideal.lattice`` eliminates each degree once, from
the Hermite bases of the degrees below, and keeps the bases on the ideal as
sparse rows (``intlinalg.Row``) over the columns ``Ring`` owns
(``Ring.columns``; ``IntPolynomial.row`` and ``Ring.from_row`` convert): the
one construction of I_d in the package, read by completion here and by every
graded piece, kernel and oracle comparison in ``graded``.  Completion walks
the pivots of those bases (each row's least column), one degree at a time,
until the critical pairs (s- and gcd-combinations) close.  One cap on the
monomial columns processed, summed over degrees, bounds the run in size and
so in time, and reaching it raises.  The polynomial reducer ``_reduce``
certifies each completed basis G of an ideal I twice, without reading the
lattices: closure (every s- and gcd-combination reduces to zero) and I ⊆ (G)
(every generator reduces to zero).  Closure is certified once per pair
against the final leads: the pairs whose lcm lies above the closing degree by
completion's stopping test, the others after it.  Nothing certifies (G) ⊆ I
yet: that each kept element lies in I rests on the elimination alone.

``_reduce`` keeps its terms on a heap of (key, exps) entries, the key the
ring's cached ``descending_key``, so it pops the greatest term first.  Each
basis keeps a table of reduction rows: for every monomial it has reduced, the
first lead dividing it, with that lead's tail shifted onto the monomial as
ready heap entries, or None when no lead divides it.  The table holds at most
one entry per distinct monomial reduced, lives and dies with its basis, and
never changes a normal form: a row depends on the monomial and the leads
alone.

A ``RingSpec`` (a ring and its generators) is the one holder of a
completed basis: it completes its ideal once, on first use, and every
membership test and normal form in the package goes through it.
``ideal_equal`` compares two presentations through their own bases.
"""

from __future__ import annotations

import heapq
import itertools
from functools import cached_property
from math import gcd, inf, lcm
from operator import add, le, sub
from typing import Iterable, Sequence

from . import intlinalg
from .ring import IntPolynomial, Ring, RingMismatchError, add_terms

# Completion raises once the monomial columns of its degrees, summed, pass
# this cap, which bounds its size, and so its time, in any number of
# variables.  Pipeline ideals close within 80 columns, small random ideals
# over three variables within about 300.  Forcing non-closure, the cap is
# reached in 0.1 to 0.3 s over two to five variables (one core, Python 3.11).
_MAX_COLUMNS = 2000


class Ideal:
    """A homogeneous ideal, given by generators over a common ring.

    Degree-0 generators (integer constants) are allowed; they present
    coefficient reduction, which is how mod-p quotients are encoded.
    ``degrees`` holds each generator's weighted degree, None for zero.
    """

    __slots__ = ("ring", "generators", "degrees", "_lattices")

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

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.generators)
        return f"Ideal({inner})"

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.ring == other.ring
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.ring, self.generators))

    def lattice(self, d: int) -> list[intlinalg.Row]:
        """The Hermite basis, as ``lattice_basis`` gives it, of the degree-d
        relation lattice I_d over ``ring.monomials_of_degree(d)``.

        I_d is spanned by the degree-d generators and, for each variable x_v
        of weight w_v, by x_v times the basis of I_{d - w_v}, so each degree
        is eliminated from the bases below it.  The ideal keeps the bases,
        so each of its degrees is eliminated once."""
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


def _lead_table(polys: Iterable[IntPolynomial]) -> list[tuple]:
    """(lead exps, lead coeff, tail) of each nonzero poly, least lead
    coefficient first and then least leading monomial; the tail lists the
    poly's other terms as (exps, coeff) pairs.  The sort is stable, so ties
    keep the order of ``polys``; ``_reduce`` takes the first lead that
    divides a term as its reducer."""
    table = [(exps, coeff, g) for g in polys for exps, coeff in [g.leading_term()]]
    # Least monomial first is greatest descending key first; the second
    # sort, by coefficient, is stable, so it keeps that order within a tie.
    table.sort(key=lambda lead: lead[2].ring.descending_key(lead[0]), reverse=True)
    table.sort(key=lambda lead: lead[1])
    return [
        (exps, coeff, [term for term in g.term_map().items() if term[0] != exps])
        for exps, coeff, g in table
    ]


class StrongGroebnerBasis:
    """A completed, interreduced strong basis with unique normal forms."""

    __slots__ = ("ring", "elements", "_leads", "_rows")

    def __init__(self, ring: Ring, elements: Sequence[IntPolynomial]):
        self.ring = ring
        self.elements = tuple(elements)
        for g in self.elements:
            g.weighted_degree()  # raises InhomogeneousError; _reduce needs homogeneous leads
        self._leads = _lead_table(self.elements)
        self._rows: dict = {}

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.elements)
        return f"StrongGroebnerBasis({inner})"

    def normal_form(self, p: IntPolynomial) -> IntPolynomial:
        """The unique fully reduced remainder of p; zero iff p is in the ideal."""
        if p.ring != self.ring:
            raise RingMismatchError(f"{p!r} is not over {self.ring!r}")
        return _reduce(p, self._leads, self._rows)

    def contains(self, p: IntPolynomial) -> bool:
        return not self.normal_form(p)

    def verify_complete(self) -> None:
        """Check closure: every s- and gcd-combination reduces to zero."""
        pair = _unclosed_pair(self.elements, self._leads, self._rows)
        if pair:
            raise AssertionError(f"basis not closed: pair ({pair[0]}, {pair[1]})")


def _unclosed_pair(
    elements: Sequence[IntPolynomial], leads, rows: dict, above: int = -1, upto: float = inf
):
    """The first pair of elements, with the lcm of their leading monomials
    of degree above ``above`` and at most ``upto``, that has a critical
    combination the leads do not reduce to zero; None when every such pair
    closes.  ``rows`` is the reduction-row table of ``leads``."""
    for i, f in enumerate(elements):
        fe, degree = f.leading_term()[0], f.ring.monomial_degree
        for g in elements[i + 1:]:
            if above < degree(tuple(map(max, fe, g.leading_term()[0]))) <= upto and any(
                _reduce(comb, leads, rows) for comb in _critical_combinations(f, g)
            ):
                return f, g
    return None


def _reduction_row(mono: tuple, ring: Ring, leads):
    """How ``_reduce`` reduces a term on mono: None when no lead divides
    mono, else the coefficient of the first lead that does and that lead's
    tail shifted onto mono, as ((heap key, exps), coeff) pairs: the heap
    entry ``_reduce`` pushes for a new term, and the coefficient."""
    for lexps, lcoeff, tail in leads:
        if all(map(le, lexps, mono)):
            break
    else:
        return None
    shift = tuple(map(sub, mono, lexps))
    key = ring.descending_key
    shifted = []
    for gexps, gcoeff in tail:
        tgt = tuple(map(add, shift, gexps))
        shifted.append(((key(tgt), tgt), gcoeff))
    return lcoeff, shifted


def _reduce(p: IntPolynomial, leads, rows: dict) -> IntPolynomial:
    """Fully reduce p, from its greatest term down, by the leads.

    The leads must come from ``_lead_table``: each term is reduced by the
    first lead whose monomial divides it, which is then the one with the
    least (lead coefficient, leading monomial).  That fixes the reducer
    whatever order the basis came in.  A reduction step keeps the residue of
    the term modulo the lead coefficient and subtracts the quotient times the
    shifted tail.  The heap holds (key, exps) entries, the key the ring's
    cached ``descending_key``, so it pops the greatest term; an entry for a
    term a step adds comes ready-made from the reduction row, so no pop
    reverses a tuple and no term has its degree summed again.

    ``rows`` is the table of reduction rows of ``leads``, filled as new
    monomials are met: at most one entry per distinct monomial reduced.  A
    row depends on the monomial and the leads alone, so the table never
    changes a normal form; it must never be shared between two lead
    tables."""
    ring = p.ring
    key = ring.descending_key
    work = p.term_map()
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    out: dict[tuple, int] = {}
    while heap:
        mono = heappop(heap)[1]
        coeff = work.pop(mono, 0)
        if not coeff:
            continue
        if mono in rows:
            row = rows[mono]
        else:
            row = rows[mono] = _reduction_row(mono, ring, leads)
        if row is None:
            out[mono] = coeff
            continue
        lcoeff, shifted = row
        q, r = divmod(coeff, lcoeff)
        if r:
            out[mono] = r
        if q:
            for entry, gcoeff in shifted:
                tgt = entry[1]
                v = work.get(tgt, 0) - q * gcoeff
                if v:
                    if tgt not in work:
                        heappush(heap, entry)
                    work[tgt] = v
                else:
                    del work[tgt]
    return IntPolynomial(ring, out, _trusted=True)


def _critical_combinations(f: IntPolynomial, g: IntPolynomial):
    """The gcd-polynomial of f and g (when neither leading coefficient
    divides the other) followed by their s-polynomial."""
    (fe, fc), (ge, gc) = f.leading_term(), g.leading_term()
    lcm_exps = tuple(map(max, fe, ge))
    shifted = [
        {tuple(map(add, exps, shift)): c for exps, c in p.term_map().items()}
        for p, shift in ((f, tuple(map(sub, lcm_exps, fe))), (g, tuple(map(sub, lcm_exps, ge))))
    ]

    def combination(a: int, b: int) -> IntPolynomial:
        terms = {exps: a * c for exps, c in shifted[0].items()}
        return IntPolynomial(f.ring, add_terms(terms, shifted[1], b), _trusted=True)

    if fc % gc and gc % fc:
        g = gcd(fc, gc)
        s = pow(fc // g, -1, abs(gc // g))  # s*fc + t*gc = g
        yield combination(s, (g - s * fc) // gc)
    c = lcm(fc, gc)
    yield combination(c // fc, -(c // gc))


def strong_groebner(ideal: Ideal) -> StrongGroebnerBasis:
    """The reduced strong Groebner basis of a homogeneous ideal.

    Degree by degree, it walks the pivots of the Hermite basis of I_d
    (``Ideal.lattice``), whose columns are in descending monomial order: a
    row led by c*mu is kept unless an earlier kept lead divides mu with a
    coefficient that divides c; its tail is already reduced modulo the
    pivots.  The kept rows of degrees <= d reduce every element of I of
    degree <= d to zero, so only pairs whose lcm lies above d can fail to
    close.  The loop stops at the first d, no lower than the largest
    generator degree, at which those pairs close.  Those pairs have then
    reduced to zero against the very lead table the result gets (no two
    kept leads tie in its order), so the certificate reduces the other
    pairs, whose lcm lies at or below d, through the result's own table of
    reduction rows: every pair closes once against the final leads, and
    every generator reduces to zero.  Passing ``_MAX_COLUMNS`` columns,
    summed over the degrees processed, raises RuntimeError before the
    degree that would pass it is eliminated.
    """
    ring = ideal.ring
    top = max((d for d in ideal.degrees if d is not None), default=0)
    leads: list[tuple] = []
    kept: list[IntPolynomial] = []
    columns = 0
    for d in itertools.count():
        monomials = ring.monomials_of_degree(d)
        columns += len(monomials)
        if columns > _MAX_COLUMNS:
            raise RuntimeError(
                f"Groebner completion reached the column cap {_MAX_COLUMNS} without closing"
            )
        for c, row in intlinalg.pivots(ideal.lattice(d)):
            mu, coeff = monomials[c], row[c]
            if not any(coeff % k == 0 and all(map(le, e, mu)) for e, k in leads):
                leads.append((mu, coeff))
                kept.append(ring.from_row(d, row))
        if d >= top and not _unclosed_pair(kept, _lead_table(kept), {}, above=d):
            break
    kept.sort(key=lambda g: ring.descending_key(g.leading_term()[0]), reverse=True)
    result = StrongGroebnerBasis(ring, kept)
    pair = _unclosed_pair(result.elements, result._leads, result._rows, upto=d)
    if pair:
        raise AssertionError(f"completed basis not closed: pair ({pair[0]}, {pair[1]})")
    for g in ideal.generators:
        if result.normal_form(g):
            raise AssertionError("completed basis does not contain a generator")
    return result


class RingSpec:
    """A graded ring presentation: a ring and its generators, which span
    the relation ideal ``relations`` of the quotient.

    This is the universal container for every Chow ring in the pipeline,
    and the only place a strong basis is completed and kept.
    """

    __slots__ = ("ring", "relations", "__dict__")

    def __init__(self, ring: Ring, generators: Iterable[IntPolynomial]):
        self.ring = ring
        self.relations = Ideal(ring, generators)

    @classmethod
    def build(cls, variables: Sequence[tuple], relation_texts: Sequence[str]) -> "RingSpec":
        ring = Ring(*variables)
        return cls(ring, [ring.parse(text) for text in relation_texts])

    def __repr__(self):
        return f"RingSpec({self.ring!r}, {self.relations!r})"

    @cached_property
    def groebner(self) -> StrongGroebnerBasis:
        return strong_groebner(self.relations)

    def normal_form(self, p: IntPolynomial) -> IntPolynomial:
        return self.groebner.normal_form(p)

    def contains(self, p: IntPolynomial) -> bool:
        return self.groebner.contains(p)

    def with_relations(self, *extra: IntPolynomial) -> "RingSpec":
        return RingSpec(self.ring, self.relations.generators + extra)

    def parse(self, text: str) -> IntPolynomial:
        return self.ring.parse(text)


def ideal_equal(a: RingSpec, b: RingSpec) -> bool:
    """Mutual containment of generators, hence equality of the two
    presentations' ideals; each side's membership uses its own basis."""
    if a.ring != b.ring:
        raise RingMismatchError("ideals live over different rings")
    return all(b.contains(g) for g in a.relations.generators) and all(
        a.contains(g) for g in b.relations.generators
    )
