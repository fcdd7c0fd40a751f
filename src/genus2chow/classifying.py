"""Classifying-space calculus for the doubled torus and its rank-2 ambient group.

The group at the center of the boundary calculations is the wreath-type
extension of a two-dimensional torus by the swap involution.  The relations
of its Chow ring are derived here from the rank-2 projective-bundle calculus;
the stated presentation they are checked against lives in the pipeline's
table of stated texts.  The transfer (pullback and pushforward) along the
torus double cover is implemented by the explicit recursion it satisfies.
Representations are described by a small closed-world grammar, just large
enough for every Euler class the pipeline needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundles import BundleClasses, srj_table, veronese_pushforward
from .groebner import RingSpec
from .ring import IntPolynomial, Ring, symmetrize_to_elementary


# -- ambient rings -------------------------------------------------------------


def torus_ring() -> Ring:
    return Ring(("t1", 1), ("t2", 1))


# -- transfer along the torus double cover ---------------------------------------


def bt_pullback(p: IntPolynomial, target: Ring) -> IntPolynomial:
    """Pullback to the torus: beta1 -> t1 + t2, beta2 -> t1 t2, gamma -> 0."""
    t1, t2 = target.var("t1"), target.var("t2")
    return p.substitute({"beta1": t1 + t2, "beta2": t1 * t2, "gamma": 0}, target=target)


def bt_pushforward(p: IntPolynomial, target: RingSpec) -> IntPolynomial:
    """Pushforward from the torus, extended linearly over monomials by

        1        -> 2
        t1       -> beta1 + gamma
        t1^a     -> beta1 push(t1^(a-1)) - beta2 push(t1^(a-2))
        t1^a t2^b -> beta2^min(a,b) push(t1^|a-b|),

    reduced into ``target``: a presentation whose relations are exactly
    (2*gamma, gamma^2 + beta1*gamma), such as the classifying ring or its
    product with the rank-2 classifying ring.  Variables other than t1, t2
    pass through as scalars.
    """
    source, ring = p.ring, target.ring
    i1, i2 = source.index("t1"), source.index("t2")
    beta1, beta2, gamma = ring.var("beta1"), ring.var("beta2"), ring.var("gamma")

    powers = [ring.const(2), beta1 + gamma]

    def push_power(a: int) -> IntPolynomial:
        while len(powers) <= a:
            k = len(powers)
            powers.append(beta1 * powers[k - 1] - beta2 * powers[k - 2])
        return powers[a]

    acc = ring.zero()
    for exps, coeff in p.term_map().items():
        a, b = exps[i1], exps[i2]
        rest = ring.zero() + coeff
        for i, e in enumerate(exps):
            if e and i not in (i1, i2):
                rest = rest * ring.var(source.names[i]) ** e
        acc = acc + rest * beta2 ** min(a, b) * push_power(abs(a - b))
    return target.normal_form(acc)


# -- representations -----------------------------------------------------------


@dataclass(frozen=True)
class RepSpec:
    """A representation in the closed-world grammar of the pipeline.

    kinds: "gl2-sym-twist" (n-th symmetric power of the dual standard
    representation, twisted by the m-th determinant power), "g-doubled-weight"
    (the doubled one-dimensional torus representations, swap-equivariant) and
    "external-tensor".
    """

    kind: str
    weights: tuple = ()
    n: int = 0
    m: int = 0
    parts: tuple = ()

    @classmethod
    def gl2_sym_twist(cls, n: int, m: int) -> "RepSpec":
        if n < 0:
            raise ValueError("symmetric power must be >= 0")
        return cls(kind="gl2-sym-twist", n=n, m=m)

    @classmethod
    def g_doubled(cls, *weights: int) -> "RepSpec":
        return cls(kind="g-doubled-weight", weights=tuple(weights))

    @classmethod
    def external_tensor(cls, left: "RepSpec", right: "RepSpec") -> "RepSpec":
        return cls(kind="external-tensor", parts=(left, right))

    def uses(self) -> set[str]:
        if self.kind == "gl2-sym-twist":
            return {"a"}
        if self.kind == "g-doubled-weight":
            return {"b"}
        return set().union(*(p.uses() for p in self.parts))


def rep_roots(rep: RepSpec, ring: Ring) -> list[IntPolynomial]:
    """Chern roots as linear forms in the workspace ring.

    The doubled representations only have a root presentation for weight
    +-2, through the formal roots b1, b2 of the weight-2 case; every other
    doubled weight must be handled through its closed-form Chern classes.
    """
    if rep.kind == "gl2-sym-twist":
        a1, a2 = ring.var("a1"), ring.var("a2")
        det = a1 + a2
        return [rep.m * det - (i * a1 + (rep.n - i) * a2) for i in range(rep.n + 1)]
    if rep.kind == "g-doubled-weight":
        roots = []
        for w in rep.weights:
            if w == 2:
                roots.extend([ring.var("b1"), ring.var("b2")])
            elif w == -2:
                roots.extend([-ring.var("b1"), -ring.var("b2")])
            else:
                raise ValueError(f"no root presentation for doubled weight {w}")
        return roots
    if rep.kind == "external-tensor":
        left = rep_roots(rep.parts[0], ring)
        right = rep_roots(rep.parts[1], ring)
        return [x + y for x in left for y in right]
    raise ValueError(f"unknown representation kind {rep.kind!r}")


_ROOT_VARS = {
    "a": (("a1", 1), ("a2", 1)),
    "b": (("b1", 1), ("b2", 1), ("eb1", 1), ("eb2", 2)),
}


def rep_euler_class(rep: RepSpec, ambient: RingSpec) -> IntPolynomial:
    """Top Chern class of the representation, reduced into the ambient ring.

    Root-presented factors are expanded as the product of their root-linear
    forms and rewritten in elementary symmetric classes; the doubled-weight
    elementary symmetrics are then specialized to (2*beta1 + gamma, 4*beta2).
    Doubled summands without a root presentation contribute the product of
    their closed-form top Chern classes.
    """
    if rep.kind == "g-doubled-weight" and any(abs(w) != 2 for w in rep.weights):
        beta2 = ambient.ring.var("beta2")
        acc = ambient.ring.one()
        for w in rep.weights:
            acc = acc * (w * w * beta2)
        return ambient.normal_form(acc)

    used = rep.uses()
    extra = []
    for tag in ("a", "b"):
        if tag in used:
            extra.extend(
                spec for spec in _ROOT_VARS[tag] if spec[0] not in ambient.ring
            )
    work = ambient.ring.extend(*extra)
    product = work.one()
    for root in rep_roots(rep, work):
        product = product * root
    families = []
    if "a" in used:
        families.append((("a1", "a2"), ("alpha1", "alpha2")))
    if "b" in used:
        families.append((("b1", "b2"), ("eb1", "eb2")))
    symmetric = symmetrize_to_elementary(product, families)
    if "b" in used:
        beta1 = work.var("beta1")
        beta2 = work.var("beta2")
        gamma = work.var("gamma")
        symmetric = symmetric.substitute(
            {"eb1": 2 * beta1 + gamma, "eb2": 4 * beta2}, target=work
        )
    result = symmetric.into(ambient.ring)
    return ambient.normal_form(result)


# -- Chern classes of the doubled weight representations ---------------------------


def wn_chern(n: int, spec: RingSpec) -> tuple[IntPolynomial, IntPolynomial]:
    """Chern classes (c1, c2) of the doubled weight-n representation:
    c1 = n beta1 + (n+1) gamma and c2 = n^2 beta2.

    For n >= 0 the closed form is returned as written; for n < 0 the dual
    rule (c1 -> -c1, c2 -> c2) is applied to weight |n| and the result is
    reduced to its canonical normal form.
    """
    ring = spec.ring
    beta1, beta2, gamma = ring.var("beta1"), ring.var("beta2"), ring.var("gamma")
    if n >= 0:
        return n * beta1 + (n + 1) * gamma, n * n * beta2
    c1, c2 = wn_chern(-n, spec)
    return spec.normal_form(-c1), spec.normal_form(c2)


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

    work = ring.extend(
        ("x", 1), ("y", 1), ("u", 1), ("v", 1),
        ("e1xy", 1), ("e2xy", 2), ("e1uv", 1), ("e2uv", 2),
    )
    x, y, u, v = (work.var(name) for name in ("x", "y", "u", "v"))
    lhs_roots = [x + u, x + v, y + u, y + v]
    e1_lhs = lhs_roots[0] + lhs_roots[1] + lhs_roots[2] + lhs_roots[3]
    e2_lhs = work.zero()
    for i in range(4):
        for j in range(i + 1, 4):
            e2_lhs = e2_lhs + lhs_roots[i] * lhs_roots[j]
    families = [(("x", "y"), ("e1xy", "e2xy")), (("u", "v"), ("e1uv", "e2uv"))]
    e1_lhs = symmetrize_to_elementary(e1_lhs, families)
    e2_lhs = symmetrize_to_elementary(e2_lhs, families)

    c1_prev, c2_prev = wn_chern(n - 1, spec)
    c1_prev2, c2_prev2 = wn_chern(n - 2, spec)
    known = {
        "e1xy": c1_prev.into(work),
        "e2xy": c2_prev.into(work),
        "e1uv": work.var("beta1"),
        "e2uv": work.var("beta2"),
    }
    e1_lhs = e1_lhs.substitute(known, target=work).into(ring)
    e2_lhs = e2_lhs.substitute(known, target=work).into(ring)

    twist = beta1 + gamma
    c1_rest = c1_prev2 + 2 * twist
    e2_rest = c2_prev2 + twist * c1_prev2 + twist * twist
    c1_n = e1_lhs - c1_rest
    c2_n = e2_lhs - e2_rest - c1_n * c1_rest
    return spec.normal_form(c1_n), spec.normal_form(c2_n)


# -- derivation of the classifying-space presentation ------------------------------


@dataclass
class BgDerivation:
    """Result of the classifying-space derivation, with its witnesses."""

    grothendieck_relation: IntPolynomial
    excision_relations: tuple[IntPolynomial, IntPolynomial]
    substituted_relations: tuple[IntPolynomial, IntPolynomial]


def bg_presentation(target: Ring) -> BgDerivation:
    """Derive the relations of the classifying ring over ``target``, a ring
    in beta1, beta2 and gamma.

    Steps: the degree-3 projective-bundle relation for the squared dual
    standard representation, the two excision relations along the squaring
    map, and the degree-1 change of variable onto the torsion class, which
    carries the excision relations into ``target``.  Nothing is compared
    here; the pipeline's check compares each step with its stated value.
    """
    amb = Ring(("alpha1", 1), ("alpha2", 2), ("t", 1))
    alpha1, alpha2, t = amb.var("alpha1"), amb.var("alpha2"), amb.var("t")

    work = amb.extend(("a1", 1), ("a2", 1))
    a1, a2 = work.var("a1"), work.var("a2")
    tw = t.into(work)
    product = (tw - 2 * a1) * (tw - 2 * a2) * (tw - a1 - a2)
    groth = symmetrize_to_elementary(product, [(("a1", "a2"), ("alpha1", "alpha2"))])
    groth = groth.into(amb)

    classes = BundleClasses(c1=-alpha1, c2=alpha2)
    table = srj_table(2, classes, hyperplane="t")
    rel1 = veronese_pushforward(2, 0, classes).expand(table)
    rel2 = veronese_pushforward(2, 1, classes).expand(table)

    beta1, beta2, gamma = target.var("beta1"), target.var("beta2"), target.var("gamma")
    rename = {
        "alpha1": beta1,
        "alpha2": beta2,
        "t": gamma + beta1,
    }
    sub1 = rel1.substitute(rename, target=target)
    sub2 = rel2.substitute(rename, target=target)
    return BgDerivation(
        grothendieck_relation=groth,
        excision_relations=(rel1, rel2),
        substituted_relations=(sub1, sub2),
    )
