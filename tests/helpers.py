"""Shared test utilities: random graded polynomials and independent oracles."""

from __future__ import annotations

import itertools
import json
import os
import random
import re
from pathlib import Path

from genus2chow import intlinalg as la
from genus2chow.bundles import BundleClasses, SClassCombo
from genus2chow.classifying import wn_chern
from genus2chow.groebner import RingSpec
from genus2chow.parse import ParseError
from genus2chow.pipeline import VerificationReport
from genus2chow.ring import IntPolynomial, Ring, symmetrize_to_elementary


SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN_D10 = Path(__file__).resolve().parents[1] / "bench" / "golden" / "verify-d10.json"


def child_env(**extra: str) -> dict[str, str]:
    """The environment for a child Python process that imports the package
    from this checkout, whether or not PYTHONPATH names it."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else ""), **extra}


def digest_changes(report: VerificationReport) -> frozenset[str]:
    """The passing checks of a degree-10 report whose witness digest differs
    from ``bench/golden/verify-d10.json``."""
    assert report.max_degree == 10
    golden = json.loads(GOLDEN_D10.read_text())["digests"]
    return frozenset(
        r["id"] for r in report.records()
        if r["status"] == "pass" and r["witness_digest"] != golden[r["id"]]
    )


def random_homogeneous(
    ring: Ring,
    degree: int,
    rng: random.Random,
    max_terms: int = 4,
    coeff_bound: int = 10**6,
) -> IntPolynomial:
    """A random homogeneous polynomial of the given weighted degree."""
    monomials = ring.monomials_of_degree(degree)
    if not monomials:
        return ring.zero()
    chosen = rng.sample(monomials, k=min(len(monomials), rng.randint(1, max_terms)))
    terms = {m: rng.randint(-coeff_bound, coeff_bound) for m in chosen}
    return IntPolynomial(ring, terms)


def naive_product(terms_a, terms_b):
    """Schoolbook expansion over explicit term lists, independent of the
    library's polynomial type: [(coeff, exps)] x [(coeff, exps)] -> dict."""
    acc: dict[tuple, int] = {}
    for ca, ea in terms_a:
        for cb, eb in terms_b:
            key = tuple(x + y for x, y in zip(ea, eb))
            acc[key] = acc.get(key, 0) + ca * cb
    return {k: v for k, v in acc.items() if v}


def as_term_list(p: IntPolynomial):
    return [(c, e) for e, c in p.term_map().items()]


def reference_substitute(p: IntPolynomial, images: dict, target: Ring) -> IntPolynomial:
    """Substitution term by term over explicit term lists: each term's
    coefficient times, for each variable it contains, that variable's image
    (or the target's variable of the same name) multiplied in once per unit
    of its exponent."""
    acc: dict[tuple, int] = {}
    for exps, c in p.term_map().items():
        term = [(c, (0,) * target.nvars)]
        for name, e in zip(p.ring.names, exps):
            if not e:
                continue
            img = images[name] if name in images else target.var(name)
            if isinstance(img, int):
                img = target.const(img)
            for _ in range(e):
                term = [(v, k) for k, v in naive_product(term, as_term_list(img)).items()]
        for coeff, key in term:
            acc[key] = acc.get(key, 0) + coeff
    return IntPolynomial(target, acc)


def sparse(row) -> dict[int, int]:
    """A dense row as a lattice row: {column: entry}, zero entries left out."""
    return {j: x for j, x in enumerate(row) if x}


def dense(row: dict[int, int], width: int) -> list[int]:
    """A lattice row written out over its first ``width`` columns."""
    return [row.get(j, 0) for j in range(width)]


def relation_rows(spec: RingSpec, d: int) -> tuple[list[tuple], list[dict[int, int]]]:
    """Degree-d monomial basis and every degree-d multiple of each relation
    generator, as a sparse {column: entry} row over it: the rows that define
    the relation lattice I_d."""
    ring = spec.ring
    rows = []
    for g in spec.generators:
        if not g or g.weighted_degree() > d:
            continue
        rows.extend(
            (g * ring.polynomial({mult: 1})).row()
            for mult in ring.monomials_of_degree(d - g.weighted_degree())
        )
    return ring.monomials_of_degree(d), rows


def reference_kernel_lattice(spec: RingSpec, m: IntPolynomial, d: int) -> list[dict[int, int]]:
    """The Hermite basis of the degree-d kernel of multiplication by m: the
    preimage, under the rows of multiplication by m on every degree-d
    monomial, of all relation rows one degree up."""
    ring = spec.ring
    target_monomials, target_rows = relation_rows(spec, d + (m.weighted_degree() or 0))
    mult_rows = [(m * ring.polynomial({exps: 1})).row() for exps in ring.monomials_of_degree(d)]
    return la.preimage_basis(mult_rows, target_rows, len(target_monomials))


def reference_preimage(A, B, ncols: int) -> list[dict[int, int]]:
    """The lattice of row vectors x with x @ A in the row lattice of B, for
    dense A and B, by the Hermite transform: the transform rows under the
    zero rows of the Hermite form of A stacked on B span the left kernel of
    the stack, and their first len(A) entries, re-based, span the preimage."""
    stacked = [list(row) for row in A] + [list(row) for row in B]
    hf = la.hermite_normal_form(stacked, ncols)
    pivot_rows = {r for r, _ in hf.pivots}
    kernel = [hf.transform[i] for i in range(len(stacked)) if i not in pivot_rows]
    return la.lattice_basis([sparse(row[: len(A)]) for row in kernel], len(A))


def reference_smith_normal_form(A, ncols: int) -> la.SmithNormalForm:
    """Smith form by dense row and column operations on A, U, V and their
    inverses: move a least entry to the pivot, clear its row and column by
    Euclid steps, and add back a row the pivot does not divide.  Entries
    are never reduced, so this suits small inputs only."""
    m, n = len(A), ncols
    D = [list(row) for row in A]
    U, Uinv = la.identity(m), la.identity(m)
    V, Vinv = la.identity(n), la.identity(n)

    def row_addmul(i, j, q):  # row_i += q * row_j
        D[i] = [x + q * y for x, y in zip(D[i], D[j])]
        U[i] = [x + q * y for x, y in zip(U[i], U[j])]
        for row in Uinv:
            row[j] -= q * row[i]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for row in Uinv:
            row[i], row[j] = row[j], row[i]

    def col_addmul(j, i, q):  # col_j += q * col_i
        for M in (D, V):
            for row in M:
                row[j] += q * row[i]
        Vinv[i] = [x - q * y for x, y in zip(Vinv[i], Vinv[j])]

    def col_swap(i, j):
        for M in (D, V):
            for row in M:
                row[i], row[j] = row[j], row[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    t = 0
    while t < min(m, n):
        entries = [(abs(D[i][j]), i, j) for i in range(t, m) for j in range(t, n) if D[i][j]]
        if not entries:
            break
        _, i, j = min(entries)
        row_swap(t, i)
        col_swap(t, j)
        while any(D[i][t] for i in range(t + 1, m)) or any(D[t][j] for j in range(t + 1, n)):
            for i in range(t + 1, m):
                while D[i][t]:
                    row_addmul(i, t, -(D[i][t] // D[t][t]))
                    if D[i][t]:
                        row_swap(t, i)
            for j in range(t + 1, n):
                while D[t][j]:
                    col_addmul(j, t, -(D[t][j] // D[t][t]))
                    if D[t][j]:
                        col_swap(t, j)
        d = D[t][t]
        culprit = next((i for i in range(t + 1, m) if any(x % d for x in D[i][t + 1:])), None)
        if culprit is not None:
            row_addmul(t, culprit, 1)
            continue
        if d < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
            for row in Uinv:
                row[t] = -row[t]
        t += 1
    return la.SmithNormalForm(m, n, U, V, Uinv, Vinv, [D[i][i] for i in range(min(m, n))])


def reference_kernel_elements(spec: RingSpec, m: IntPolynomial, d: int):
    """The nonzero normal forms of the degree-d kernel of multiplication by
    m, by a Smith form: the relation rows, in coordinates over the kernel
    lattice's Hermite basis, diagonalize to one generator per invariant
    factor, and every combination of the generators is reduced.  None when
    the kernel piece has positive free rank."""
    ring = spec.ring
    monomials, rel_rows = relation_rows(spec, d)
    basis = reference_kernel_lattice(spec, m, d)
    n = len(basis)
    coords = [la.lattice_coordinates(basis, row) for row in rel_rows]
    snf = la.smith_normal_form([dense(row, n) for row in la.lattice_basis(coords, n)], ncols=n)
    diagonal = list(snf.diagonal) + [0] * (n - len(snf.diagonal))
    if 0 in diagonal:
        return None
    dense_basis = [dense(row, len(monomials)) for row in basis]
    gens = [
        (ring.from_row(d, sparse(la.matvec_left(snf.Vinv[i], dense_basis))), order)
        for i, order in enumerate(diagonal) if order != 1
    ]
    elements = set()
    for combo in itertools.product(*(range(order) for _, order in gens)):
        acc = ring.zero()
        for k, (g, _) in zip(combo, gens):
            acc = acc + k * g
        nf = spec.normal_form(acc)
        if nf:
            elements.add(nf)
    return elements


def grevlex_key(ring: Ring, exps: tuple) -> tuple:
    """Graded reverse lexicographic order, written out: the greater
    monomial has the greater key."""
    return ring.monomial_degree(exps), tuple(-e for e in reversed(exps))


def reference_reduce(p: IntPolynomial, elements) -> IntPolynomial:
    """Normal form of p by plain division: the greatest remaining term is
    reduced by the first basis element, in lead-table order (least lead
    coefficient, then least leading monomial), whose leading monomial
    divides it, and q times the shifted element is subtracted in full."""
    ring = p.ring
    leads = sorted(
        ((g.leading_term(), g) for g in elements),
        key=lambda lead: (lead[0][1], grevlex_key(ring, lead[0][0])),
    )
    work = p.term_map()
    out: dict[tuple, int] = {}
    while work:
        mono = max(work, key=lambda exps: grevlex_key(ring, exps))
        for (lexps, lcoeff), g in leads:
            if all(a <= b for a, b in zip(lexps, mono)):
                break
        else:
            out[mono] = work.pop(mono)
            continue
        q = work[mono] // lcoeff
        shift = tuple(a - b for a, b in zip(mono, lexps))
        for gexps, gcoeff in g.term_map().items():
            tgt = tuple(a + b for a, b in zip(shift, gexps))
            work[tgt] = work.get(tgt, 0) - q * gcoeff
            if not work[tgt]:
                del work[tgt]
        if mono in work:
            out[mono] = work.pop(mono)
    return IntPolynomial(ring, out)


# -- an independent reader of the polynomial grammar --------------------------------

_REFERENCE_TOKEN_RE = re.compile(
    r"[ \t\n\r\f\v]*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
)


def _reference_tokens(text: str) -> list[tuple[str, str, int]]:
    """One regex match per token, skipping ASCII whitespace."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip(" \t\n\r\f\v")
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        for kind in ("int", "name", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind), m.start(kind)))
                break
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def reference_parse(ring: Ring, text: str) -> IntPolynomial:
    """The polynomial grammar evaluated as a chain of ``IntPolynomial``
    operations: one polynomial per token, combined with ``+ - * **``."""
    tokens = _reference_tokens(text)
    at = 0

    def peek():
        return tokens[at]

    def advance():
        nonlocal at
        at += 1
        return tokens[at - 1]

    def is_op(token, ops):
        return token[0] == "op" and token[1] in ops

    def expression():
        negate = is_op(peek(), "+-") and advance()[1] == "-"
        poly = term()
        poly = -poly if negate else poly
        while is_op(peek(), "+-"):
            op = advance()[1]
            rhs = term()
            poly = poly - rhs if op == "-" else poly + rhs
        return poly

    def term():
        poly = factor()
        while is_op(peek(), "*"):
            advance()
            poly = poly * factor()
        return poly

    def factor():
        base = primary()
        if not is_op(peek(), "^"):
            return base
        advance()
        kind, value, pos = advance()
        if kind != "int":
            raise ParseError("expected integer exponent", pos)
        return base ** int(value)

    def primary():
        kind, value, pos = advance()
        if kind == "int":
            return ring.const(int(value))
        if kind == "name":
            if value not in ring:
                raise ParseError(f"unknown variable {value!r}", pos)
            return ring.var(value)
        if is_op((kind, value), "("):
            poly = expression()
            kind, value, pos = peek()
            if not is_op((kind, value), ")"):
                raise ParseError("expected ')'", pos)
            advance()
            return poly
        if is_op((kind, value), "-"):
            return -primary()
        raise ParseError("expected a coefficient, variable or '('", pos)

    poly = expression()
    kind, value, pos = peek()
    if kind != "end":
        raise ParseError(f"unexpected {value!r}", pos)
    return poly


# -- oracles for the classifying-space calculus -----------------------------------


def torus_ring() -> Ring:
    return Ring(("t1", 1), ("t2", 1))


def bt_pullback(p: IntPolynomial, target: Ring) -> IntPolynomial:
    """Pullback to the torus: beta1 -> t1 + t2, beta2 -> t1 t2, gamma -> 0."""
    t1, t2 = target.var("t1"), target.var("t2")
    return p.substitute({"beta1": t1 + t2, "beta2": t1 * t2, "gamma": 0}, target=target)


def wn_chern_from_tensor_identity(
    n: int, spec: RingSpec
) -> tuple[IntPolynomial, IntPolynomial]:
    """Rederive (c1(W_n), c2(W_n)) for n >= 2 from the splitting of
    W_(n-1) (x) W_1 into W_n plus a twist of W_(n-2), by comparing the
    degree-1 and degree-2 parts of total Chern classes on both sides.
    """
    if n < 2:
        raise ValueError("the tensor identity derivation needs n >= 2")
    ring = spec.ring
    beta1, gamma = ring.var("beta1"), ring.var("gamma")

    c1_prev, c2_prev = wn_chern(n - 1, spec)
    c1_prev2, c2_prev2 = wn_chern(n - 2, spec)
    work = ring.extend(("x", 1), ("y", 1), ("u", 1), ("v", 1))
    x, y, u, v = (work.var(name) for name in ("x", "y", "u", "v"))
    lhs_roots = [x + u, x + v, y + u, y + v]
    e1_lhs = lhs_roots[0] + lhs_roots[1] + lhs_roots[2] + lhs_roots[3]
    e2_lhs = work.zero()
    for i in range(4):
        for j in range(i + 1, 4):
            e2_lhs = e2_lhs + lhs_roots[i] * lhs_roots[j]
    families = [
        (("x", "y"), (c1_prev.into(work), c2_prev.into(work))),
        (("u", "v"), (work.var("beta1"), work.var("beta2"))),
    ]
    e1_lhs = symmetrize_to_elementary(e1_lhs, families).into(ring)
    e2_lhs = symmetrize_to_elementary(e2_lhs, families).into(ring)

    twist = beta1 + gamma
    c1_rest = c1_prev2 + 2 * twist
    e2_rest = c2_prev2 + twist * c1_prev2 + twist * twist
    c1_n = e1_lhs - c1_rest
    c2_n = e2_lhs - e2_rest - c1_n * c1_rest
    return spec.normal_form(c1_n), spec.normal_form(c2_n)


# -- oracles for the rank-2 splitting reduction -------------------------------------


def elementary(ring: Ring, names, k: int) -> IntPolynomial:
    """The k-th elementary symmetric polynomial in the named variables."""
    acc = ring.zero()
    for combo in itertools.combinations(names, k):
        term = ring.one()
        for name in combo:
            term = term * ring.var(name)
        acc = acc + term
    return acc


def reference_symmetrize(p: IntPolynomial, families) -> IntPolynomial:
    """Symmetric rewriting by lex-profile elimination, for families of any
    number of degree-1 roots: split along a family's roots, then rewrite the
    coefficient of the lex-leading root profile (e_1^(i1-i2) ... e_k^ik
    leads with that profile, coefficient 1) until no profile is left."""
    ring = p.ring
    for roots, targets in families:
        k = len(roots)
        idx = [ring.index(r) for r in roots]
        elem = [elementary(ring, roots, i + 1) for i in range(k)]
        tvars = [ring.var(t) for t in targets]
        split = p.coefficients(roots)
        done = ring.zero()
        while split:
            profile = max(split)
            cofactor = split[profile]
            assert sorted(profile, reverse=True) == list(profile), "input not symmetric"
            in_targets, in_roots = ring.one(), ring.one()
            for i in range(k):
                step = profile[i] - (profile[i + 1] if i + 1 < k else 0)
                in_targets = in_targets * tvars[i] ** step
                in_roots = in_roots * elem[i] ** step
            done = done + cofactor * in_targets
            for exps, c in in_roots.term_map().items():
                key = tuple(exps[i] for i in idx)
                rest = split.get(key, ring.zero()) - c * cofactor
                if rest:
                    split[key] = rest
                else:
                    del split[key]
        p = done
    return p


def reference_bt_pushforward(p: IntPolynomial, target: RingSpec) -> IntPolynomial:
    """The torus transfer by its four rules, extended linearly over
    monomials and reduced into ``target``:
    1 -> 2, t1 -> beta1 + gamma,
    t1^a -> beta1 push(t1^(a-1)) - beta2 push(t1^(a-2)) and
    t1^a t2^b -> beta2^min(a,b) push(t1^|a-b|)."""
    ring = target.ring
    beta1, beta2, gamma = ring.var("beta1"), ring.var("beta2"), ring.var("gamma")
    pushed = [ring.const(2), beta1 + gamma]
    acc = ring.zero()
    for (a, b), rest in p.coefficients(("t1", "t2")).items():
        while len(pushed) <= abs(a - b):
            pushed.append(beta1 * pushed[-1] - beta2 * pushed[-2])
        acc = acc + rest.into(ring) * beta2 ** min(a, b) * pushed[abs(a - b)]
    return target.normal_form(acc)


# -- oracles for the pushforward calculus -------------------------------------------


def reference_diagonal(classes: BundleClasses, hyperplanes) -> IntPolynomial:
    """The small diagonal of (P E)^n by its closed formula, for n = 2 or 3."""
    ring, c1, c2 = classes.ring, classes.c1, classes.c2
    if len(hyperplanes) == 2:
        x1, x2 = (ring.var(h) for h in hyperplanes)
        return x1 + x2 + c1
    x1, x2, x3 = (ring.var(h) for h in hyperplanes)
    return (x1 * x2 + x2 * x3 + x3 * x1) + (x1 + x2 + x3) * c1 + c1 * c1 - c2


def reference_veronese(k: int, j: int, classes: BundleClasses) -> SClassCombo:
    """The pushforward of s_1^j along the squaring (k = 2) or cubing (k = 3)
    map by its closed formula."""
    ring, c1, c2 = classes.ring, classes.c1, classes.c2
    formulas = {
        (2, 0): [2 * c1, ring.const(2), ring.zero()],
        (2, 1): [-2 * c2, ring.zero(), ring.one()],
        (3, 0): [6 * (c1 * c1 - c2), 6 * c1, ring.const(3), ring.zero()],
        (3, 1): [-6 * c1 * c2, -6 * c2, ring.zero(), ring.one()],
    }
    return SClassCombo(k, formulas[k, j])


def reference_squarefree(p: IntPolynomial, names, classes: BundleClasses) -> IntPolynomial:
    """p with x^2 replaced by -c1 x - c2, one square of one named hyperplane
    class x per term and pass, until no named exponent exceeds 1."""
    ring = p.ring
    while True:
        done, rest = ring.zero(), ring.zero()
        for exps, coeff in p.term_map().items():
            high = [name for name in names if exps[ring.index(name)] >= 2]
            if not high:
                done = done + ring.polynomial({exps: coeff})
                continue
            lowered = list(exps)
            lowered[ring.index(high[0])] -= 2
            x = ring.var(high[0])
            rest = rest + ring.polynomial({tuple(lowered): coeff}) * (-classes.c1 * x - classes.c2)
        if not rest:
            return done
        p = done + rest
