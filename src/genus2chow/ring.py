"""Sparse multivariate polynomial arithmetic over ZZ with weighted gradings.

Every Chow-ring computation in this package reduces to exact arithmetic with
graded integer polynomials: products, graded substitutions, the reduction
over the roots of a rank-2 splitting (which rewrites an expression symmetric
in each pair of roots straight onto the given Chern classes of their bundles,
and serves the torus transfer and hyperplane powers), and truncated quotients
of total Chern series.  Polynomials are immutable values; all operations are
pure functions, so results can be shared freely.

A ``Ring`` is its variables' ``names`` and ``weights``, and owns the columns
of the relation lattices that ``groebner.RingSpec.lattice`` builds and
``graded`` reads: ``Ring.columns`` gives each degree-d monomial its column,
``IntPolynomial.row`` turns a homogeneous polynomial into a sparse row over
them and ``Ring.from_row`` turns a row back.
"""

from __future__ import annotations

import operator
import re
from typing import Mapping, Sequence, Union

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class RingMismatchError(ValueError):
    """An operation mixed polynomials over different variable sets."""


class InhomogeneousError(ValueError):
    """A polynomial expected to be homogeneous mixes weighted degrees.

    ``witness`` holds a pair of exponent tuples of different weights.
    """

    def __init__(self, message: str, witness: tuple = ()):
        super().__init__(message)
        self.witness = witness


class GradingError(ValueError):
    """A substitution image does not have the weight of the replaced variable."""


class NotSymmetricError(ValueError):
    """An input is not invariant under the requested root swaps.

    ``orbit`` holds an offending exponent tuple together with its image
    under the swap that breaks the symmetry.
    """

    def __init__(self, message: str, orbit: tuple = ()):
        super().__init__(message)
        self.orbit = orbit


class Ring:
    """An ordered list of weighted variables over the integers, declared as
    (name, weight) pairs and kept as the tuples ``names`` and ``weights``.
    A name is an identifier and a weight an int of at least 1.

    The declaration order fixes the graded reverse lexicographic monomial
    order used by the ideal machinery, so normal forms (but no ideal-level
    answer) depend on it.  The ring keeps one order key per monomial it meets
    (``descending_key``), and the monomials of each degree in order and their
    columns (``columns``), which ``IntPolynomial.row`` and ``from_row`` read.
    """

    __slots__ = ("names", "weights", "_index", "_mons_cache", "_key_cache", "_cols_cache")

    def __init__(self, *variables: tuple[str, int]):
        names = tuple(name for name, _ in variables)
        weights = tuple(weight for _, weight in variables)
        for name, weight in zip(names, weights):
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
            if isinstance(weight, bool) or not isinstance(weight, int):
                raise ValueError(f"variable {name!r}: degree must be an int, got {weight!r}")
            if weight < 1:
                raise ValueError(f"variable {name!r}: degree must be >= 1, got {weight}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {list(names)}")
        self.names = names
        self.weights = weights
        self._index = {name: i for i, name in enumerate(names)}
        self._mons_cache: dict[int, list] = {}
        self._key_cache: dict[tuple, tuple] = {}
        self._cols_cache: dict[int, dict] = {}

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Ring) and self.names == other.names and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.names, self.weights))

    def __repr__(self):
        inner = ", ".join(f"{name}:{weight}" for name, weight in zip(self.names, self.weights))
        return f"Ring({inner})"

    # -- variable bookkeeping -------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no variable {name!r} in {self!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def extend(self, *variables) -> "Ring":
        return Ring(*zip(self.names, self.weights), *variables)

    # -- monomials -------------------------------------------------------

    def monomial_degree(self, exps: Sequence[int]) -> int:
        return sum(map(operator.mul, self.weights, exps))

    def descending_key(self, exps: tuple) -> tuple:
        """The key (-degree, reversed exponents), memoized: one per monomial
        the ring meets.  Ascending keys list monomials in descending graded
        reverse lexicographic order, so the least key is the greatest
        monomial: ``leading_term``, a Groebner basis's lead table and
        rendering sort by it, and ``groebner._reduce`` reads a term's degree
        off it."""
        cached = self._key_cache.get(exps)
        if cached is None:
            cached = self._key_cache[exps] = (-self.monomial_degree(exps), exps[::-1])
        return cached

    def monomials_of_degree(self, d: int) -> list[tuple[int, ...]]:
        """All exponent tuples of weighted degree exactly d, in descending
        order (memoized).

        A greater monomial has the smaller exponent of the last variable,
        then of the one before it, and so on; so the exponents are chosen
        from the last variable back, each ascending, and the first variable
        takes the degree left, when its weight divides it."""
        if d < 0:
            return []
        found = self._mons_cache.get(d)
        if found is None:
            weights = self.weights
            tails = [((), d)]  # (exponents of the later variables, degree left)
            for w in reversed(weights[1:]):
                tails = [((e,) + t, left - e * w) for t, left in tails for e in range(left // w + 1)]
            if weights:
                found = [(left // weights[0],) + t for t, left in tails if not left % weights[0]]
            else:  # no variables: only the empty monomial, of degree 0
                found = [t for t, left in tails if not left]
            self._mons_cache[d] = found
        return found

    def columns(self, d: int) -> dict[tuple, int]:
        """Each degree-d monomial's column in a lattice row: its place in
        ``monomials_of_degree(d)`` (memoized)."""
        found = self._cols_cache.get(d)
        if found is None:
            found = self._cols_cache[d] = {m: j for j, m in enumerate(self.monomials_of_degree(d))}
        return found

    def from_row(self, d: int, row: Mapping[int, int]) -> "IntPolynomial":
        """The degree-d polynomial whose lattice row is ``row``, a sparse
        {column: entry} row with no zero entries."""
        monomials = self.monomials_of_degree(d)
        return IntPolynomial(self, {monomials[j]: c for j, c in row.items()}, _trusted=True)

    # -- element constructors ---------------------------------------------

    def zero(self) -> "IntPolynomial":
        return IntPolynomial(self, {})

    def one(self) -> "IntPolynomial":
        return self.const(1)

    def const(self, n: int) -> "IntPolynomial":
        if n == 0:
            return self.zero()
        return IntPolynomial(self, {(0,) * self.nvars: n})

    def var(self, name: str) -> "IntPolynomial":
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return IntPolynomial(self, {tuple(exps): 1})

    def polynomial(self, terms: Mapping[tuple, int]) -> "IntPolynomial":
        return IntPolynomial(self, terms)

    def parse(self, text: str) -> "IntPolynomial":
        """``parse.parse_polynomial`` over this ring."""
        return parse.parse_polynomial(self, text)


# -- term maps (exponent tuple -> nonzero int): the one arithmetic kernel --------


def add_terms(a: dict, b: Mapping[tuple, int], sign: int = 1) -> dict:
    """Add sign*b into the term map a, in place; returns a."""
    for exps, c in b.items():
        v = a.get(exps, 0) + sign * c
        if v:
            a[exps] = v
        else:
            del a[exps]
    return a


def mul_terms(a: Mapping[tuple, int], b: Mapping[tuple, int]) -> dict:
    """The term map of a*b."""
    result: dict[tuple, int] = {}
    add, get = operator.add, result.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(add, e1, e2))
            v = get(key, 0) + c1 * c2
            if v:
                result[key] = v
            elif key in result:
                del result[key]
    return result


def pow_terms(a: Mapping[tuple, int], n: int, nvars: int) -> dict:
    """The term map of a^n; a one-term base only scales its exponents."""
    if n < 0:
        raise ValueError("negative powers are not defined")
    if len(a) == 1:
        ((exps, c),) = a.items()
        return {tuple(e * n for e in exps): c**n}
    result, base = {(0,) * nvars: 1}, a
    while n:
        if n & 1:
            result = mul_terms(result, base)
        base = mul_terms(base, base) if n > 1 else base
        n >>= 1
    return result


class IntPolynomial:
    """Immutable sparse polynomial with arbitrary-precision integer coefficients.

    Terms are stored as a map from exponent tuples (one entry per ring
    variable) to nonzero coefficients; two polynomials are equal exactly when
    their term maps agree.  ``_trusted=True`` adopts ``terms`` as that map,
    unchecked and uncopied: the caller passes a dict it has just built, of
    well-formed exponent tuples and nonzero ints, and keeps no other use of it.
    """

    __slots__ = ("ring", "_terms", "_lt")

    def __init__(self, ring: Ring, terms: Mapping[tuple, int], _trusted: bool = False):
        self.ring = ring
        if _trusted:
            self._terms = terms
        else:
            clean: dict[tuple, int] = {}
            n = ring.nvars
            for exps, coeff in terms.items():
                if isinstance(coeff, bool) or not isinstance(coeff, int):
                    raise TypeError(f"coefficient {coeff!r} is not an integer")
                exps = tuple(exps)
                if len(exps) != n or any(
                    isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in exps
                ):
                    raise ValueError(f"bad exponent tuple {exps} for {ring!r}")
                if coeff:
                    clean[exps] = clean.get(exps, 0) + coeff
                    if not clean[exps]:
                        del clean[exps]
            self._terms = clean
        self._lt = None

    # -- inspection -------------------------------------------------------

    def term_map(self) -> dict[tuple, int]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficients(self, names: Sequence[str]) -> dict[tuple[int, ...], "IntPolynomial"]:
        """Split along the named variables: each exponent tuple of ``names``
        that occurs maps to its coefficient, a polynomial (in this ring) in
        the other variables."""
        idx = [self.ring.index(name) for name in names]
        split: dict[tuple, dict[tuple, int]] = {}
        for exps, c in self._terms.items():
            rest = list(exps)
            for i in idx:
                rest[i] = 0
            split.setdefault(tuple(exps[i] for i in idx), {})[tuple(rest)] = c
        return {key: IntPolynomial(self.ring, terms, _trusted=True) for key, terms in split.items()}

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        """Greatest term under the ring's monomial order. Raises on zero."""
        if self._lt is None:
            if not self._terms:
                raise ValueError("zero polynomial has no leading term")
            exps = min(self._terms, key=self.ring.descending_key)
            self._lt = (exps, self._terms[exps])
        return self._lt

    def weighted_degree(self):
        """Common weighted degree of all terms.

        Returns None for the zero polynomial (its degree is unconstrained);
        raises InhomogeneousError carrying two offending monomials otherwise.
        """
        terms = iter(self._terms)
        first = next(terms, None)
        if first is None:
            return None
        degree = self.ring.monomial_degree
        d = degree(first)
        for exps in terms:
            if degree(exps) != d:
                (d1, m1), (d2, m2) = sorted([(d, first), (degree(exps), exps)])
                raise InhomogeneousError(
                    f"mixed weighted degrees {d1} and {d2}", witness=(m1, m2)
                )
        return d

    def row(self, shift: Sequence[int] | None = None) -> dict[int, int]:
        """The sparse lattice row {column: coefficient} of x^shift times this
        polynomial, over the monomials of its degree (``Ring.columns``).
        The shift is one nonnegative int per variable, else ValueError;
        raises InhomogeneousError when the terms mix degrees."""
        terms = self._terms
        if shift is not None:
            if len(shift) != self.ring.nvars or any(
                isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in shift
            ):
                raise ValueError(f"bad shift {shift!r} for {self.ring!r}")
            terms = {tuple(map(operator.add, exps, shift)): c for exps, c in terms.items()}
        if not terms:
            return {}
        columns = self.ring.columns(self.ring.monomial_degree(next(iter(terms))))
        try:
            return {columns[exps]: c for exps, c in terms.items()}
        except KeyError:
            self.weighted_degree()  # a term of another degree: raises InhomogeneousError
            raise

    def rows(self) -> dict[int, dict[int, int]]:
        """This polynomial split by weighted degree, {d: the lattice row of
        its degree-d terms}; each degree is read off ``Ring.descending_key``."""
        ring, rows = self.ring, {}
        for exps, c in self._terms.items():
            d = -ring.descending_key(exps)[0]
            rows.setdefault(d, {})[ring.columns(d)[exps]] = c
        return rows

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "IntPolynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"cannot combine {self.ring!r} with {other.ring!r}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check_ring(other)
        return IntPolynomial(self.ring, add_terms(dict(self._terms), other._terms), _trusted=True)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(self.ring, {e: -c for e, c in self._terms.items()}, _trusted=True)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check_ring(other)
        terms = add_terms(dict(self._terms), other._terms, -1)
        return IntPolynomial(self.ring, terms, _trusted=True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return self.ring.zero()
            return IntPolynomial(
                self.ring, {e: other * c for e, c in self._terms.items()}, _trusted=True
            )
        self._check_ring(other)
        return IntPolynomial(self.ring, mul_terms(self._terms, other._terms), _trusted=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return IntPolynomial(self.ring, pow_terms(self._terms, n, self.ring.nvars), _trusted=True)

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            if other == 0:
                return not self._terms
            return self._terms == {(0,) * self.ring.nvars: other}
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, frozenset(self._terms.items())))

    def __str__(self):
        """``parse.render_polynomial`` of this polynomial."""
        return parse.render_polynomial(self)

    def __repr__(self):
        return f"<{self}>"

    # -- homomorphisms ----------------------------------------------------------

    def substitute(
        self,
        images: Mapping[str, Union["IntPolynomial", int]],
        target: Ring | None = None,
    ) -> "IntPolynomial":
        """Apply the graded ring homomorphism sending each named variable to
        its image, in ``target`` (by default the polynomial's own ring).

        Every name must be a variable of this polynomial's ring (else
        KeyError), and every image must lie in the target ring and be
        homogeneous of the replaced variable's weight; zero counts as
        homogeneous of any weight.  The whole map is checked, whether or not
        the polynomial uses a variable.  Each unnamed variable it uses maps
        to the variable of the same name (and weight) in the target ring.
        """
        ring = self.ring
        target = ring if target is None else target
        checked: dict[int, IntPolynomial] = {}
        for name, img in images.items():
            i = ring.index(name)
            if isinstance(img, int):
                img = target.const(img)
            elif img.ring != target:
                raise RingMismatchError(f"image of {name} lives in {img.ring!r}, not {target!r}")
            d = img.weighted_degree()
            if d is not None and d != ring.weights[i]:
                raise GradingError(f"image of {name} has degree {d}, expected {ring.weights[i]}")
            checked[i] = img
        used = set()
        for exps in self._terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        # A kept variable moves to its position in the target; the named
        # images are multiplied in once per pattern of their exponents.
        named: list[tuple[int, IntPolynomial]] = []
        kept: list[tuple[int, int]] = []
        for i in sorted(used):
            if i in checked:
                named.append((i, checked[i]))
                continue
            name, weight = ring.names[i], ring.weights[i]
            if name not in target or target.weights[target.index(name)] != weight:
                raise GradingError(f"variable {name} has no graded counterpart in {target!r}")
            kept.append((i, target.index(name)))

        by_pattern: dict[tuple, dict[tuple, int]] = {}
        for exps, c in self._terms.items():
            moved = [0] * target.nvars
            for i, j in kept:
                moved[j] = exps[i]
            by_pattern.setdefault(tuple(exps[i] for i, _ in named), {})[tuple(moved)] = c

        result: dict[tuple, int] = {}
        for pattern, terms in by_pattern.items():
            piece = IntPolynomial(target, terms, _trusted=True)
            for (_, img), e in zip(named, pattern):
                if e:
                    piece = piece * img ** e
            add_terms(result, piece._terms)
        return IntPolynomial(target, result, _trusted=True)

    def into(self, target: Ring) -> "IntPolynomial":
        """Reinterpret in a ring containing the same named, like-graded variables."""
        return self.substitute({}, target=target)


# -- rank-2 splitting ----------------------------------------------------------


def reduce_roots(
    p: IntPolynomial, roots: Sequence[str], s: IntPolynomial, q: IntPolynomial,
    target: Ring | None = None,
) -> tuple[IntPolynomial, IntPolynomial]:
    """Split p as p0 + p1*a over the relations of a rank-2 splitting.

    For two roots (a, b) the relations are a + b = s and a*b = q; for a lone
    root a they are a^2 = s*a - q.  The returned p0 and p1 live in ``target``
    (default: the ring of p), which holds s, q and every variable of p other
    than the roots, by name; neither holds a root.  A monomial a^i b^j is
    q^min(i,j) times a^k or b^k, k = |i - j|, read from the table
    a^k = x_k + y_k a, b^k = (x_k + s y_k) - y_k a.
    """
    target = p.ring if target is None else target
    xs, ys = [target.one(), target.zero()], [target.zero(), target.one()]
    p0 = p1 = target.zero()
    for exps, coeff in p.coefficients(roots).items():
        i, j = exps if len(exps) == 2 else (exps[0], 0)
        k = abs(i - j)
        while len(xs) <= k:
            xs, ys = xs + [-q * ys[-1]], ys + [xs[-1] + s * ys[-1]]
        if target != p.ring:
            coeff = coeff.into(target)
        if min(i, j):
            coeff = coeff * q ** min(i, j)
        x, y = (xs[k], ys[k]) if i >= j else (xs[k] + s * ys[k], -ys[k])
        p0, p1 = p0 + coeff * x, p1 + coeff * y
    return p0, p1


SymmetricFamilies = Sequence[tuple[Sequence[str], tuple[IntPolynomial, IntPolynomial]]]


def symmetrize_to_elementary(p: IntPolynomial, families: SymmetricFamilies) -> IntPolynomial:
    """Rewrite a polynomial, symmetric within each pair of degree-1 roots,
    with each pair's elementary symmetric polynomials read as given classes:
    the splitting principle.

    ``families`` lists (root names, (s, q)) pairs: two roots r1, r2 each,
    with classes s = r1 + r2 and q = r1 r2 over the ring of p, of degrees 1
    and 2 (zero is allowed) and free of every root.  The result lies in
    that ring and holds no root.
    """
    ring = p.ring
    for roots, classes in families:
        if len(roots) != 2 or len(classes) != 2 or roots[0] == roots[1]:
            raise ValueError("a family is two distinct roots and two classes")
        for x, weight in zip([ring.var(r) for r in roots] + list(classes), (1, 1, 1, 2)):
            if x.ring != ring or x.weighted_degree() not in (None, weight):
                raise ValueError(f"{x} must have degree {weight} over {ring!r}")
        _check_symmetry(p, roots)

    result = p
    for roots, (s, q) in families:
        result, rest = reduce_roots(result, roots, s, q)
        if rest:
            raise AssertionError("internal error: a symmetric input kept a root")
    return result


def _check_symmetry(p: IntPolynomial, roots: Sequence[str]):
    ring = p.ring
    a, b = (ring.index(r) for r in roots)
    for exps, c in p._terms.items():
        if exps[a] == exps[b]:
            continue
        swapped = list(exps)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        if p._terms.get(tuple(swapped), 0) != c:
            raise NotSymmetricError(
                f"not symmetric under {roots} swap", orbit=(exps, tuple(swapped))
            )


# -- truncated Chern series ---------------------------------------------------


def chern_series_quotient(
    numerator: Sequence[IntPolynomial],
    denominator: Sequence[IntPolynomial],
    k: int,
) -> IntPolynomial:
    """Degree-k component of the quotient of two total-class series.

    Each series is a list of homogeneous components by degree, with component
    0 equal to 1; missing high components are treated as zero.  The quotient
    is computed by truncated formal inversion of the denominator.
    """
    if k < 0:
        raise ValueError("truncation degree must be >= 0")
    if not numerator or not denominator:
        raise ValueError("series need at least their constant component")
    ring = numerator[0].ring
    for series in (numerator, denominator):
        if series[0] != 1:
            raise ValueError("series must have constant component 1")
        for d, part in enumerate(series):
            deg = part.weighted_degree()
            if deg is not None and deg != d:
                raise InhomogeneousError(
                    f"series component {d} has weighted degree {deg}"
                )

    def component(series, d):
        return series[d] if d < len(series) else ring.zero()

    inverse = [ring.one()]
    for j in range(1, k + 1):
        acc = ring.zero()
        for i in range(1, j + 1):
            acc = acc + component(denominator, i) * inverse[j - i]
        inverse.append(-acc)
    acc = ring.zero()
    for i in range(0, k + 1):
        acc = acc + component(numerator, i) * inverse[k - i]
    return acc


# ``parse`` reads this module's classes, so it is bound last: either module
# can then be imported first, and ``Ring.parse`` and ``IntPolynomial.__str__``
# look its functions up as module attributes at each call.
from . import parse  # noqa: E402
