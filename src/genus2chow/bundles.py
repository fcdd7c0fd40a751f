"""Pushforward calculus for projective bundles of rank-2 bundles.

The multiplication maps (P E)^j x P(Sym^(r-j) E) -> P(Sym^r E) admit a
distinguished system of classes s_r^j, computed by a two-term recurrence in
the hyperplane class.  In this basis the pushforwards along multiplication,
squaring and cubing (Veronese) maps, diagonals and the Segre map are all
given by small universal formulas, which this module implements as exact
polynomial operations.  The formulas in the hyperplane class take that class
as a polynomial, so they evaluate directly at whatever class it is set to.

Euler classes and projective-bundle relations are products of linear forms
in the Chern roots of rank-2 bundles; ``root_product`` expands such a
product over the roots alone and reduces it straight onto the bundles' Chern
classes by the splitting principle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Sequence

from .ring import IntPolynomial, Ring, RingMismatchError, reduce_roots, symmetrize_to_elementary


@dataclass(frozen=True)
class BundleClasses:
    """First and second Chern classes of a rank-2 bundle."""

    c1: IntPolynomial
    c2: IntPolynomial

    def __post_init__(self):
        if self.c1.ring != self.c2.ring:
            raise RingMismatchError("c1 and c2 must live in one ring")
        d1 = self.c1.weighted_degree()
        d2 = self.c2.weighted_degree()
        if d1 not in (None, 1) or d2 not in (None, 2):
            raise ValueError("c1 must have degree 1 and c2 degree 2")

    @property
    def ring(self) -> Ring:
        return self.c1.ring


def root_product(
    classes: Sequence[BundleClasses],
    factors: Sequence[tuple[IntPolynomial, Sequence[int]]],
) -> IntPolynomial:
    """The product of linear forms in the Chern roots of rank-2 bundles,
    written in their Chern classes.

    Each factor (x, multiplicities) is the form x + m1 r1 + m2 r2 + ..., with
    x a class of the bundles' ring and (m1, m2) the multiples of each
    bundle's roots (r1, r2) in turn.  The product must be symmetric in each
    bundle's pair of roots; ``NotSymmetricError`` is raised otherwise.
    """
    ring = classes[0].ring
    # Names behind more underscores than any name of the ring has characters
    # are fresh.
    fresh = "_" * (1 + max(len(v.name) for v in ring.variables))
    roots = [(f"{fresh}r{k}", f"{fresh}s{k}") for k in range(len(classes))]
    work = ring.extend(*((name, 1) for pair in roots for name in pair))
    root_vars = [work.var(name) for pair in roots for name in pair]
    product = work.one()
    for x, multiplicities in factors:
        form = x.into(work)
        for m, r in zip(multiplicities, root_vars, strict=True):
            form = form + m * r
        product = product * form
    families = [(pair, (c.c1.into(work), c.c2.into(work))) for pair, c in zip(roots, classes)]
    return symmetrize_to_elementary(product, families).into(ring)


def srj_table(r: int, classes: BundleClasses, t: IntPolynomial) -> tuple[IntPolynomial, ...]:
    """The classes s_r^0 .. s_r^r at the hyperplane class ``t``, from the
    recurrence
    s_r^0 = 1,  s_r^(j+1) = (t + j c1) s_r^j + j (r + 1 - j) c2 s_r^(j-1).
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    ring = classes.ring
    entries = [ring.one()]
    for j in range(r):
        prev = entries[j]
        prev2 = entries[j - 1] if j >= 1 else ring.zero()
        entries.append((t + j * classes.c1) * prev + j * (r + 1 - j) * classes.c2 * prev2)
    return tuple(entries)


def mult_pushforward(a: int, alpha: int, b: int, beta: int) -> tuple[int, tuple[int, int]]:
    """Pushforward of s_a^alpha x s_b^beta along the multiplication map:
    the binomial coefficient on s_(a+b)^(alpha+beta)."""
    if not (0 <= alpha <= a and 0 <= beta <= b):
        raise ValueError(f"indices out of range: ({alpha},{a}), ({beta},{b})")
    coefficient = comb(a - alpha + b - beta, a - alpha)
    return coefficient, (alpha + beta, a + b)


class SClassCombo:
    """A ZZ[base]-linear combination of the classes s_r^0 .. s_r^r."""

    __slots__ = ("r", "coeffs")

    def __init__(self, r: int, coeffs: Sequence[IntPolynomial]):
        if len(coeffs) != r + 1:
            raise ValueError(f"need {r + 1} coefficients for r = {r}")
        self.r = r
        self.coeffs = tuple(coeffs)

    @property
    def ring(self) -> Ring:
        return self.coeffs[0].ring

    @classmethod
    def unit(cls, ring: Ring, r: int, j: int) -> "SClassCombo":
        coeffs = [ring.zero()] * (r + 1)
        coeffs[j] = ring.one()
        return cls(r, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, SClassCombo)
            and self.r == other.r
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.r, self.coeffs))

    def scale(self, factor) -> "SClassCombo":
        return SClassCombo(self.r, [factor * c for c in self.coeffs])

    def push_multiply(self, other: "SClassCombo") -> "SClassCombo":
        """Pushforward of the product along multiplication to r = self.r + other.r."""
        ring = self.ring
        r = self.r + other.r
        out = [ring.zero()] * (r + 1)
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                if not cj:
                    continue
                coefficient, (index, _) = mult_pushforward(self.r, i, other.r, j)
                out[index] = out[index] + coefficient * ci * cj
        return SClassCombo(r, out)

    def expand(self, values: Sequence[IntPolynomial]) -> IntPolynomial:
        """The sum of each coefficient times the matching value of s_r^0 ..
        s_r^r, such as an expanded table's entries."""
        acc = self.ring.zero()
        for c, value in zip(self.coeffs, values, strict=True):
            if c:
                acc = acc + c * value
        return acc

    def __str__(self):
        parts = [f"({c})*s{self.r}^{j}" for j, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) if parts else "0"


def diagonal_class(n: int, classes: BundleClasses, hyperplanes: Sequence[str]) -> IntPolynomial:
    """Class of the small diagonal of (P E)^n, for n = 2 or 3."""
    ring = classes.ring
    if n == 2:
        x1, x2 = (ring.var(h) for h in hyperplanes)
        return x1 + x2 + classes.c1
    if n == 3:
        x1, x2, x3 = (ring.var(h) for h in hyperplanes)
        return (
            (x1 * x2 + x2 * x3 + x3 * x1)
            + (x1 + x2 + x3) * classes.c1
            + classes.c1 * classes.c1
            - classes.c2
        )
    raise ValueError(f"unsupported diagonal arity {n}")


def veronese_pushforward(k: int, j: int, classes: BundleClasses) -> SClassCombo:
    """Pushforward of s_1^j along the squaring (k = 2) or cubing (k = 3) map,
    as a combination of s_k classes."""
    ring = classes.ring
    c1, c2 = classes.c1, classes.c2
    if k == 2 and j == 0:
        return SClassCombo(2, [2 * c1, ring.const(2), ring.zero()])
    if k == 2 and j == 1:
        return SClassCombo(2, [-2 * c2, ring.zero(), ring.one()])
    if k == 3 and j == 0:
        return SClassCombo(3, [6 * (c1 * c1 - c2), 6 * c1, ring.const(3), ring.zero()])
    if k == 3 and j == 1:
        return SClassCombo(3, [-6 * c1 * c2, -6 * c2, ring.zero(), ring.one()])
    raise ValueError(f"unsupported Veronese indices k = {k}, j = {j}")


def segre_pushforward(
    exps: tuple[int, int],
    e1: BundleClasses,
    e2: BundleClasses,
    x: IntPolynomial,
) -> IntPolynomial:
    """Pushforward along the Segre map P E1 x P E2 -> P(E1 (x) E2) of
    x1^i x2^j, for (i, j) = ``exps`` with i, j in {0, 1}, at the target
    hyperplane class ``x``."""
    if e2.ring != e1.ring:
        raise RingMismatchError("both bundles must live over one ring")
    c11, c21 = e1.c1, e1.c2
    c12, c22 = e2.c1, e2.c2
    if exps == (0, 0):
        return 2 * x + c11 + c12
    if exps == (1, 0):
        return x * x + c12 * x + c22 - c21
    if exps == (0, 1):
        return x * x + c11 * x + c21 - c22
    if exps == (1, 1):
        return (
            x ** 3
            + (c11 + c12) * x ** 2
            + (c21 + c11 * c12 + c22) * x
            + c11 * c22 + c21 * c12
        )
    raise ValueError(f"unsupported Segre exponents {exps!r}")


def push_multiplication_power(
    p: IntPolynomial, xvars: Sequence[str], classes: BundleClasses
) -> SClassCombo:
    """Pushforward along the r-fold multiplication map (P E)^r -> P(Sym^r E).

    Powers x_i^2 are first rewritten through the fiberwise relation
    x_i^2 = -c1 x_i - c2; a squarefree product of j distinct hyperplane
    classes then pushes to (r - j)! s_r^j.
    """
    ring = p.ring
    r = len(xvars)
    work = p
    for name in xvars:
        # The remainder is unique because squarefree monomials are a basis
        # over the base.
        low, high = reduce_roots(work, (name,), -classes.c1, classes.c2)
        work = low + high * ring.var(name)

    out = [ring.zero()] * (r + 1)
    for exps, coeff in work.coefficients(xvars).items():
        j = sum(exps)
        out[j] = out[j] + factorial(r - j) * coeff
    return SClassCombo(r, out)
