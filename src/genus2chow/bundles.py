"""Pushforward calculus for projective bundles of rank-2 bundles.

The multiplication maps (P E)^j x P(Sym^(r-j) E) -> P(Sym^r E) admit a
distinguished system of classes s_r^j, computed by a two-term recurrence in
the hyperplane class.  Two primitives, the fiberwise relation
x^2 = -c1 x - c2 and the binomial pushforward along multiplication, give the
diagonals and the squaring and cubing (Veronese) pushforwards; the Segre
pushforward keeps four formulas of its own.  Formulas in the hyperplane class
take it as a polynomial, so they evaluate directly at whatever class it is.

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


def _fresh(ring: Ring) -> str:
    """A prefix of fresh names: more underscores than any name has characters."""
    return "_" * (1 + max(len(v.name) for v in ring.variables))


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
    fresh = _fresh(ring)
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
        if not 0 <= j <= r:
            raise ValueError(f"index {j} out of range for r = {r}")
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

    def push_multiply(self, other: "SClassCombo") -> "SClassCombo":
        """Pushforward of the product along multiplication to r = self.r + other.r:
        s_a^i x s_b^j pushes to binom(a - i + b - j, a - i) s_(a+b)^(i+j)."""
        ring = self.ring
        r = self.r + other.r
        out = [ring.zero()] * (r + 1)
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                if cj:
                    out[i + j] = out[i + j] + comb(r - i - j, self.r - i) * ci * cj
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


def _squarefree(p: IntPolynomial, xvars: Sequence[str], classes: BundleClasses) -> IntPolynomial:
    """p with the powers of the hyperplane classes ``xvars`` rewritten by the
    fiberwise relation x^2 = -c1 x - c2."""
    for name in xvars:
        # The remainder is unique because squarefree monomials are a basis
        # over the base.
        low, high = reduce_roots(p, (name,), -classes.c1, classes.c2)
        p = low + high * p.ring.var(name)
    return p


def diagonal_class(classes: BundleClasses, hyperplanes: Sequence[str]) -> IntPolynomial:
    """Class of the small diagonal of (P E)^n, n = len(hyperplanes): the
    product of the consecutive diagonals x_i + x_(i+1) + c1, squarefree."""
    xs = [classes.ring.var(h) for h in hyperplanes]
    product = classes.ring.one()
    for a, b in zip(xs, xs[1:]):
        product = product * (a + b + classes.c1)
    return _squarefree(product, hyperplanes, classes)


def veronese_pushforward(k: int, j: int, classes: BundleClasses) -> SClassCombo:
    """Pushforward of s_1^j along the Veronese map P E -> P(Sym^k E), as a
    combination of s_k classes: the small diagonal of (P E)^k times x1^j,
    pushed along the k-fold multiplication map."""
    if k < 1 or j not in (0, 1):
        raise ValueError(f"unsupported Veronese indices k = {k}, j = {j}")
    ring = classes.ring
    names = [f"{_fresh(ring)}x{i}" for i in range(k)]
    work = ring.extend(*((name, 1) for name in names))
    lifted = BundleClasses(c1=classes.c1.into(work), c2=classes.c2.into(work))
    p = diagonal_class(lifted, names) * work.var(names[0]) ** j
    combo = push_multiplication_power(p, names, lifted)
    return SClassCombo(k, [c.into(ring) for c in combo.coeffs])


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
    r = len(xvars)
    out = [p.ring.zero()] * (r + 1)
    for exps, coeff in _squarefree(p, xvars, classes).coefficients(xvars).items():
        j = sum(exps)
        out[j] = out[j] + factorial(r - j) * coeff
    return SClassCombo(r, out)
