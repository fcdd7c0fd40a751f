"""Classifying-space calculus for the doubled torus and its rank-2 ambient group.

The group at the center of the boundary calculations is the wreath-type
extension of a two-dimensional torus by the swap involution.  The relations
of its Chow ring are derived here from the rank-2 projective-bundle calculus;
the stated presentation they are checked against lives in the pipeline's
table of stated texts.  The pushforward along the torus double cover is the
projection formula over the splitting reduction of the torus roots.
"""

from __future__ import annotations

from typing import NamedTuple

from .bundles import BundleClasses, root_product, srj_table, veronese_pushforward
from .groebner import RingSpec
from .ring import IntPolynomial, Ring, reduce_roots


# -- transfer along the torus double cover ---------------------------------------


def bt_pushforward(p: IntPolynomial, target: RingSpec) -> IntPolynomial:
    """Pushforward from the torus by the projection formula.

    p reduces to low + high t1 over the splitting t1 + t2 = beta1,
    t1 t2 = beta2, and pushes to 2 low + (beta1 + gamma) high, reduced into
    ``target``: a presentation whose relations are exactly
    (2*gamma, gamma^2 + beta1*gamma), such as the classifying ring or its
    product with the rank-2 classifying ring.  Variables other than t1, t2
    pass through as scalars.
    """
    ring = target.ring
    beta1, gamma = ring.var("beta1"), ring.var("gamma")
    low, high = reduce_roots(p, ("t1", "t2"), beta1, ring.var("beta2"), target=ring)
    return target.normal_form(2 * low + (beta1 + gamma) * high)


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


class BgDerivation(NamedTuple):
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

    classes = BundleClasses(c1=-alpha1, c2=alpha2)
    groth = root_product([classes], [(t, (i, 2 - i)) for i in range(3)])
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
