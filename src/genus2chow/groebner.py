"""Strong Groebner bases over the integers for homogeneous ideals.

The rings in this package carry essential torsion (relations like 2*gamma = 0
and 3*alpha2 = 0), so field-coefficient bases are useless here.  A *strong*
basis over ZZ guarantees that every leading term of the ideal is divisible,
monomial and coefficient alike, by the leading term of some basis element;
completion therefore processes gcd combinations alongside the classical
s-polynomials.  Normal forms reduce every coefficient to its smallest
nonnegative residue, which makes them unique and path-independent.

A ``RingSpec`` (generators plus relation ideal) is the one holder of a
completed basis: it completes its ideal once, on first use, and every
membership test and normal form in the package goes through it.
``ideal_equal`` compares two presentations through their own bases.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from math import gcd
from operator import add, le, sub
from typing import Iterable, Sequence

from .ring import IntPolynomial, Ring, RingMismatchError

_MAX_PAIR_STEPS = 200_000
# Completion over ZZ can suffer severe coefficient growth on adversarial
# inputs (unlike the small torsion ideals this package actually computes
# with).  Rather than grinding on huge integers, completion aborts cleanly
# once a basis element's coefficients pass this bit size; the bound sits far
# above anything a graded Chow-ring presentation produces.
_MAX_COEFF_BITS = 32_768


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = s*a + t*b and g = gcd(a, b) > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class Ideal:
    """A homogeneous ideal, given by generators over a common ring.

    Degree-0 generators (integer constants) are allowed; they present
    coefficient reduction, which is how mod-p quotients are encoded.
    """

    __slots__ = ("ring", "generators")

    def __init__(self, ring: Ring, generators: Iterable[IntPolynomial]):
        gens = tuple(generators)
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError(f"generator {g!r} is not over {ring!r}")
            g.weighted_degree()  # raises InhomogeneousError on mixed degrees
        self.ring = ring
        self.generators = gens

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

    def plus(self, *extra: IntPolynomial) -> "Ideal":
        return Ideal(self.ring, self.generators + tuple(extra))


def _monomial_divides(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(map(le, a, b))


def _lead_table(polys: Iterable[IntPolynomial]) -> list[tuple]:
    """(lead exps, lead coeff, tail) of each nonzero poly, least lead
    coefficient first and then least leading monomial; the tail lists the
    poly's other terms as (exps, coeff) pairs.  The sort is stable, so ties
    keep the order of ``polys``; ``_reduce`` takes the first lead that
    divides a term as its reducer."""
    table = [(exps, coeff, g) for g in polys for exps, coeff in [g.leading_term()]]
    table.sort(key=lambda lead: (lead[1], lead[2].ring.monomial_key(lead[0])))
    return [
        (exps, coeff, [term for term in g.term_map().items() if term[0] != exps])
        for exps, coeff, g in table
    ]


class StrongGroebnerBasis:
    """A completed, interreduced strong basis with unique normal forms."""

    __slots__ = ("ring", "elements", "_leads")

    def __init__(self, ring: Ring, elements: Sequence[IntPolynomial]):
        self.ring = ring
        self.elements = tuple(elements)
        for g in self.elements:
            g.weighted_degree()  # raises InhomogeneousError; _reduce needs homogeneous leads
        self._leads = _lead_table(self.elements)

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.elements)
        return f"StrongGroebnerBasis({inner})"

    def normal_form(self, p: IntPolynomial) -> IntPolynomial:
        """The unique fully reduced remainder of p; zero iff p is in the ideal."""
        if p.ring != self.ring:
            raise RingMismatchError(f"{p!r} is not over {self.ring!r}")
        return _reduce(p, self._leads)

    def contains(self, p: IntPolynomial) -> bool:
        return not self.normal_form(p)

    def verify_complete(self) -> None:
        """Check closure: every s- and gcd-combination reduces to zero."""
        elems = self.elements
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                for comb in _critical_combinations(elems[i], elems[j]):
                    if _reduce(comb, self._leads):
                        raise AssertionError(
                            f"basis not closed: pair ({elems[i]}, {elems[j]})"
                        )


def _reduce(p: IntPolynomial, leads) -> IntPolynomial:
    """Fully reduce p, from its greatest term down, by the leads.

    The leads must come from ``_lead_table``: each term is reduced by the
    first lead whose monomial divides it, which is then the one with the
    least (lead coefficient, leading monomial).  That fixes the reducer
    whatever order the basis came in.  A reduction step keeps the residue of
    the term modulo the lead coefficient and subtracts the quotient times the
    shifted tail.  The leads are homogeneous, so every term a step adds has
    the degree of the term it reduces; the heap key (negated degree,
    reversed exponents) is the negated grevlex key."""
    ring = p.ring
    work = p.term_map()
    heap = [(-ring.monomial_degree(m), m[::-1]) for m in work]
    heapq.heapify(heap)
    out: dict[tuple, int] = {}
    while heap:
        neg_degree, reverse = heapq.heappop(heap)
        mono = reverse[::-1]
        coeff = work.pop(mono, 0)
        if not coeff:
            continue
        for lexps, lcoeff, tail in leads:
            if all(map(le, lexps, mono)):
                break
        else:
            out[mono] = coeff
            continue
        q, r = divmod(coeff, lcoeff)
        if r:
            out[mono] = r
        if q:
            shift = tuple(map(sub, mono, lexps))
            for gexps, gcoeff in tail:
                tgt = tuple(map(add, shift, gexps))
                v = work.get(tgt, 0) - q * gcoeff
                if v:
                    if tgt not in work:
                        heapq.heappush(heap, (neg_degree, tgt[::-1]))
                    work[tgt] = v
                else:
                    del work[tgt]
    return IntPolynomial(ring, out, _trusted=True)


def _normalize_sign(p: IntPolynomial) -> IntPolynomial:
    _, c = p.leading_term()
    return -p if c < 0 else p


def _critical_combinations(f: IntPolynomial, g: IntPolynomial):
    """The gcd-polynomial of f and g (when neither leading coefficient
    divides the other) followed by their s-polynomial.

    The gcd combination comes first: adding it shrinks the leading
    coefficients available for reduction, which tames the coefficient growth
    the s-polynomial's lcm multipliers would otherwise amplify.
    """
    ring = f.ring
    (fe, fc), (ge, gc) = f.leading_term(), g.leading_term()
    lcm_exps = tuple(max(a, b) for a, b in zip(fe, ge))
    shift_f = tuple(a - b for a, b in zip(lcm_exps, fe))
    shift_g = tuple(a - b for a, b in zip(lcm_exps, ge))
    mono_f = IntPolynomial(ring, {shift_f: 1}, _trusted=True)
    mono_g = IntPolynomial(ring, {shift_g: 1}, _trusted=True)
    if fc % gc and gc % fc:
        d, s, t = _xgcd(fc, gc)
        yield s * mono_f * f + t * mono_g * g
    c = fc * gc // gcd(fc, gc)
    yield (c // fc) * mono_f * f - (c // gc) * mono_g * g


def strong_groebner(ideal: Ideal) -> StrongGroebnerBasis:
    """Complete the generators to a strong Groebner basis over ZZ.

    The working basis stays interreduced: a new element retires every live
    element whose leading term it divides, and the retired elements are fed
    back through reduction.  Correctness does not depend on these heuristics:
    the final basis is certified by closure of all critical combinations and
    by reducing every original generator to zero.  Termination is guaranteed
    (the ring is Noetherian); a step cap guards against implementation bugs.
    """
    ring = ideal.ring
    basis: list[IntPolynomial] = []     # append-only; alive flags what counts
    alive: list[bool] = []
    live_leads: list[tuple] = []        # _lead_table of the live ones
    queue: list[tuple] = []
    counter = 0

    def rebuild_leads():
        live_leads[:] = _lead_table(g for ok, g in zip(alive, basis) if ok)

    def push_pairs(new_index: int):
        nonlocal counter
        ge, _ = basis[new_index].leading_term()
        for i in range(new_index):
            if not alive[i]:
                continue
            fe, _ = basis[i].leading_term()
            lcm_exps = tuple(max(a, b) for a, b in zip(fe, ge))
            counter += 1
            heapq.heappush(
                queue, (ring.monomial_degree(lcm_exps), counter, i, new_index)
            )

    def add(p0: IntPolynomial):
        stack = [p0]
        while stack:
            p = _reduce(stack.pop(), live_leads)
            if not p:
                continue
            p = _normalize_sign(p)
            if max(abs(c) for c in p.term_map().values()).bit_length() > _MAX_COEFF_BITS:
                raise RuntimeError(
                    "coefficient growth exceeded the configured bound;"
                    " this ideal is outside the engine's intended regime"
                )
            pexps, pcoeff = p.leading_term()
            for i, g in enumerate(basis):
                if not alive[i]:
                    continue
                gexps, gcoeff = g.leading_term()
                if _monomial_divides(pexps, gexps) and gcoeff % pcoeff == 0:
                    alive[i] = False
                    stack.append(g)
            basis.append(p)
            alive.append(True)
            rebuild_leads()
            push_pairs(len(basis) - 1)

    for g in ideal.generators:
        if g:
            add(g)

    steps = 0
    while queue:
        steps += 1
        if steps > _MAX_PAIR_STEPS:
            raise RuntimeError("Groebner completion exceeded the step cap")
        _, _, i, j = heapq.heappop(queue)
        # Pairs of retired elements are still processed: their combinations
        # are ideal members, so at worst they reduce to zero.
        for comb in _critical_combinations(basis[i], basis[j]):
            remainder = _reduce(comb, live_leads)
            if remainder:
                add(remainder)

    reduced = _interreduce(ring, [g for ok, g in zip(alive, basis) if ok])
    result = StrongGroebnerBasis(ring, reduced)
    result.verify_complete()
    for g in ideal.generators:
        if result.normal_form(g):
            raise AssertionError("completed basis does not contain a generator")
    return result


def _interreduce(ring: Ring, basis: list[IntPolynomial]) -> list[IntPolynomial]:
    elems = [_normalize_sign(g) for g in basis if g]
    for _ in range(200):
        elems.sort(key=lambda g: ring.monomial_key(g.leading_term()[0]))
        changed = False
        for i in range(len(elems)):
            others = _lead_table(g for k, g in enumerate(elems) if k != i and g)
            r = _reduce(elems[i], others)
            if r != elems[i]:
                changed = True
                elems[i] = _normalize_sign(r) if r else ring.zero()
        elems = [g for g in elems if g]
        if not changed:
            break
    else:
        raise RuntimeError("interreduction did not stabilize")
    elems.sort(key=lambda g: ring.monomial_key(g.leading_term()[0]))
    return elems


class RingSpec:
    """A graded ring presentation: weighted variables plus a relation ideal.

    This is the universal container for every Chow ring in the pipeline,
    and the only place a strong basis is completed and kept.
    """

    __slots__ = ("ring", "relations", "__dict__")

    def __init__(self, ring: Ring, relations: Ideal):
        if relations.ring != ring:
            raise RingMismatchError("relations live over a different ring")
        self.ring = ring
        self.relations = relations

    @classmethod
    def build(
        cls,
        variables: Sequence[tuple],
        relation_texts: Sequence[str] = (),
    ) -> "RingSpec":
        ring = Ring(*variables)
        gens = [ring.parse(text) for text in relation_texts]
        return cls(ring, Ideal(ring, gens))

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
        return RingSpec(self.ring, self.relations.plus(*extra))

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
