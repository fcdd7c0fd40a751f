"""Classifying-space calculus for the doubled torus and its rank-2 ambient group.

The group at the center of the boundary calculations is the wreath-type
extension of a two-dimensional torus by the swap involution.  The relations
of its Chow ring are derived here from the rank-2 projective-bundle calculus;
the stated presentation they are checked against lives in the pipeline's
table of stated texts.  The pushforward along the torus double cover is
implemented by the explicit recursion it satisfies.
Representations are described by a small closed-world grammar, just large
enough for every Euler class the pipeline needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundles import BundleClasses, srj_table, veronese_pushforward
from .groebner import RingSpec
from .ring import IntPolynomial, Ring, symmetrize_to_elementary


# -- transfer along the torus double cover ---------------------------------------


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
    ring = target.ring
    beta1, beta2, gamma = ring.var("beta1"), ring.var("beta2"), ring.var("gamma")

    powers = [ring.const(2), beta1 + gamma]

    def push_power(a: int) -> IntPolynomial:
        while len(powers) <= a:
            k = len(powers)
            powers.append(beta1 * powers[k - 1] - beta2 * powers[k - 2])
        return powers[a]

    acc = ring.zero()
    for (a, b), rest in p.coefficients(("t1", "t2")).items():
        acc = acc + rest.into(ring) * beta2 ** min(a, b) * push_power(abs(a - b))
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
    table = srj_table(2, classes, t)
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
