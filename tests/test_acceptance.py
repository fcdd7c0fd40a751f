"""Acceptance gate: the twelve stated criteria, one test per criterion.

Every comparison is exact integer or symbolic equality; there are no
tolerances anywhere.  Each test prints a single pass/fail line (visible
under ``pytest -s`` or on failure).
"""

import random

from genus2chow.classifying import bt_pushforward
from genus2chow.graded import membership_matches_normal_form
from genus2chow.groebner import RingSpec, ideal_equal
from genus2chow.intlinalg import lattice_basis
from genus2chow.pipeline import Pipeline
from genus2chow.ring import Ring

from helpers import bt_pullback, random_homogeneous, relation_rows, torus_ring


def _report(num: int, ok: bool, description: str):
    print(f"AC-{num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def _passes(pipeline: Pipeline, check_id: str) -> bool:
    return pipeline.run_check(check_id).status == "pass"


def test_criterion_01_classifying_space_derivation(pipeline):
    ok = _passes(pipeline, "thm:bg")
    if ok:
        deriv = pipeline.bg_derivation
        ring = deriv.excision_relations[0].ring
        bg = pipeline.bg
        ok = (
            deriv.excision_relations[0] == ring.parse("2*t - 2*alpha1")
            and deriv.excision_relations[1] == ring.parse("t^2 - alpha1*t")
            and RingSpec(ring, deriv.excision_relations).contains(deriv.grothendieck_relation)
            and ideal_equal(RingSpec(bg.ring, deriv.substituted_relations), bg)
        )
    _report(
        1,
        ok,
        "excision relations 2t - 2a1 and t^2 - a1 t; bundle relation implied;"
        " presentation (2g, g^2 + b1 g)",
    )


def test_criterion_02_s6_table(pipeline):
    _report(2, _passes(pipeline, "s6-table"), "five displayed basis classes match exactly")


def test_criterion_03_sij_and_determinant(pipeline):
    ok = _passes(pipeline, "sij-expansions") and _passes(pipeline, "det-7x7")
    _report(
        3,
        ok,
        "seven pushforward expansions match; determinant = 86400*(lambda1^2 - 4*lambda2)^3",
    )


def test_criterion_04_rewritings_and_membership(pipeline):
    ok = _passes(pipeline, "sij-rewrites") and _passes(pipeline, "groth-membership")
    _report(
        4,
        ok,
        "three rewriting identities hold; bundle relation and pushforward classes"
        " lie in (s00, s10)",
    )


def test_criterion_05_boundary_ring(pipeline):
    ok = _passes(pipeline, "adelta1")
    if ok:
        stated = pipeline.delta1_data["stated"]
        ok = stated.contains(stated.parse("576*lambda2^2"))
    _report(5, ok, "boundary ring matches stated presentation; 576*lambda2^2 implied")


def test_criterion_06_open_stratum(pipeline):
    ok = _passes(pipeline, "thm:45")
    if ok:
        spec = pipeline.gm_data["spec"]
        kernels = pipeline.twist_kernels
        m = spec.parse("t - 2*lambda1")
        k3 = spec.parse("60*(lambda1^2 - 4*lambda2)*(t - 3*lambda1)")
        k4 = spec.parse(
            "5*lambda1*lambda2*(12*t - 48*lambda1)"
            " - (6*lambda1^2 - 12*lambda2)*(t^2 - lambda1*t - 44*lambda2)"
        )
        generated = spec.with_relations(k3, k4)

        def generated_lattice(d):
            monomials, rows = relation_rows(generated, d)
            return lattice_basis(rows, len(monomials))

        # k3 and k4 lie in the kernel, and in every degree the kernel lattice
        # is the lattice of the ideal they add.
        ok = (
            spec.contains(k3 * m)
            and spec.contains(k4 * m)
            and all(basis == generated_lattice(d) for d, basis in enumerate(kernels))
            and len(kernels) == pipeline.max_degree + 1
            and pipeline.max_degree >= 10
        )
    _report(
        6,
        ok,
        "open stratum = ZZ[l1, l2]/(24l1^2 - 48l2, 20l1l2); twist kernel generated"
        " by the degree-3 and degree-4 classes through degree 10",
    )


def test_criterion_07_series_quotient_and_linear_assembly(pipeline):
    ok = _passes(pipeline, "kappa") and _passes(pipeline, "delta0")
    _report(
        7,
        ok,
        "dualizing-class quadric from the truncated series quotient;"
        " delta0 = 10*lambda1 - 2*delta1",
    )


def test_criterion_08_degree3_kernel(pipeline):
    _report(
        8,
        _passes(pipeline, "degree3-kernel"),
        "degree-3 kernel is exactly the three stated classes, with the stated"
        " boundary pushforwards",
    )


def test_criterion_09_degree5_image(pipeline):
    _report(
        9,
        _passes(pipeline, "im5"),
        "(6*lambda1^2 - 12*lambda2)*4*lambda2 vanishes in the boundary ring",
    )


def test_criterion_10_main_presentation(pipeline):
    _report(
        10,
        _passes(pipeline, "thm:main"),
        "the six localization relations generate exactly the stated ideal",
    )


def test_criterion_11_bielliptic(pipeline):
    ok = all(
        _passes(pipeline, cid)
        for cid in ("bielliptic-euler", "relzero", "reltrip", "bielliptic-ring",
                    "bielliptic-mod2")
    )
    _report(
        11,
        ok,
        "test-family Euler classes, zero-section and triple-root relations,"
        " seven-relation presentation, mod-2 ring and the three nonvanishing classes",
    )


def test_criterion_12_property_suites(pipeline):
    # Oracle agreement on every pipeline ring through degree 8.
    oracle_ok = all(
        membership_matches_normal_form(spec, d)
        for spec in pipeline.presentations.values()
        for d in range(9)
    )

    # Projection formula on 100 randomized inputs.
    bg = pipeline.bg
    bt = torus_ring()
    rng = random.Random(2024)
    projection_ok = True
    for _ in range(100):
        q = random_homogeneous(bg.ring, rng.randint(1, 3), rng, coeff_bound=99)
        p = random_homogeneous(bt, rng.randint(1, 4), rng, coeff_bound=99)
        lhs = bt_pushforward(bt_pullback(q, bt) * p, bg)
        rhs = bg.normal_form(q * bt_pushforward(p, bg))
        projection_ok = projection_ok and lhs == rhs

    # Ring axioms and the substitution homomorphism on randomized inputs.
    ring = Ring(("x", 1), ("y", 1), ("z", 2))
    images = {
        "x": random_homogeneous(ring, 1, rng),
        "y": random_homogeneous(ring, 1, rng),
        "z": random_homogeneous(ring, 2, rng),
    }
    axioms_ok = True
    for _ in range(50):
        a = random_homogeneous(ring, rng.randint(0, 3), rng)
        b = random_homogeneous(ring, rng.randint(0, 3), rng)
        c = random_homogeneous(ring, rng.randint(0, 3), rng)
        axioms_ok = axioms_ok and a * (b * c) == (a * b) * c
        axioms_ok = axioms_ok and a * b == b * a
        axioms_ok = axioms_ok and a * (b + c) == a * b + a * c
        axioms_ok = axioms_ok and (a * b).substitute(images) == a.substitute(
            images
        ) * b.substitute(images)

    _report(
        12,
        oracle_ok and projection_ok and axioms_ok,
        "oracle agreement through degree 8 on all pipeline rings; projection"
        " formula on 100 randomized inputs; ring axioms and substitution"
        " homomorphism on randomized inputs",
    )
