"""End-to-end verification of the genus-two boundary-stratification computation.

Every check re-derives one ring-theoretic statement from the primitive
calculus (bundle pushforwards, classifying-space transfers, ideal arithmetic)
and certifies it against the stated presentation, exactly, over the integers.
Checks are pure assertions over lazily cached intermediate results, so a
single Pipeline instance can run any subset in dependency order.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .bundles import (
    BundleClasses,
    SClassCombo,
    diagonal_class,
    push_multiplication_power,
    root_product,
    segre_pushforward,
    srj_table,
    veronese_pushforward,
)
from .classifying import bg_presentation, bt_pushforward, wn_chern
from .graded import (
    enumerate_kernel_elements,
    graded_piece,
    membership_matches_normal_form,
    multiplication_kernel,
)
from .groebner import RingSpec, ideal_equal
from .intlinalg import determinant_expansion
from .ring import IntPolynomial, Ring, chern_series_quotient


class CheckFailure(AssertionError):
    """A verification step failed; the message is the witness."""


class UnknownCheckError(ValueError):
    def __init__(self, bad: Sequence[str], known: Sequence[str]):
        super().__init__(f"unknown check id(s) {list(bad)}; valid ids: {list(known)}")
        self.bad = list(bad)
        self.known = list(known)


def _require(condition: bool, witness: str):
    if not condition:
        raise CheckFailure(witness)


def _expect(derived, stated, what: str):
    """Require a derived value to equal its stated one; the witness names both."""
    if derived != stated:
        raise CheckFailure(f"{what} {derived}, expected {stated}")


def _expect_table(derived: dict, stated: dict, table: str, entry: str):
    """Require a derived table to equal the stated one, key set first; ``table``
    names it in the witness, and ``entry`` a mismatched entry, ``{}`` its key."""
    unmatched = sorted(derived.keys() ^ stated.keys())
    _require(not unmatched, f"{table} not both derived and stated: {unmatched}")
    for key, value in stated.items():
        _expect(derived[key], value, entry.format(key))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class LemmaCheck:
    """Outcome of one machine check of a stated result."""

    id: str
    anchor: str
    status: str  # "pass" or "fail"
    witness: str
    elapsed_ms: int

    def record(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "status": self.status,
            "witness_digest": _digest(self.witness),
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass
class VerificationReport:
    max_degree: int
    checks: list[LemmaCheck]

    @property
    def overall(self) -> str:
        return "pass" if all(c.status == "pass" for c in self.checks) else "fail"

    def records(self) -> list[dict]:
        return [c.record() for c in self.checks]

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "genus2chow-report/1",
                "max_degree": self.max_degree,
                "overall": self.overall,
                "checks": self.records(),
            },
            indent=2,
            sort_keys=True,
        )

    def __eq__(self, other):
        """Reports are equal when their deterministic parts are: timings are
        not compared."""

        def key(report: VerificationReport) -> tuple:
            return report.max_degree, [
                (c.id, c.anchor, c.status, _digest(c.witness)) for c in report.checks
            ]

        return isinstance(other, VerificationReport) and key(self) == key(other)


@dataclass(frozen=True)
class CheckDef:
    id: str
    anchor: str
    title: str
    deps: tuple[str, ...]
    run: Callable[["Pipeline"], str]  # returns the witness text
    stated: str                       # the stated result, as `explain` shows it


def pushforward_boundary_to_total(p: IntPolynomial, target: Ring) -> IntPolynomial:
    """Pushforward along the inclusion of the disconnecting-node boundary:
    rewrite the involution class as the boundary class plus the first Hodge
    class, then multiply by the boundary class (projection formula)."""
    delta1 = target.var("delta1")
    lam1 = target.var("lambda1")
    return delta1 * p.substitute({"gamma": delta1 + lam1}, target=target)


# The stated results, each written once.  A check parses these texts where it
# verifies them and quotes them in its witness; `explain` renders them.

_BG_BUNDLE_FACTORS = "(t^2 - 2*alpha1*t + 4*alpha2)*(t - alpha1)"
_BG_EXCISION = ("-2*alpha1 + 2*t", "-alpha1*t + t^2")
_BG_VARS = (("beta1", 1), ("beta2", 2), ("gamma", 1))
_BG_RELATIONS = ("2*gamma", "gamma^2 + beta1*gamma")

_S6_TABLE = {
    0: "1",
    1: "t",
    2: "t^2 - lambda1*t + 6*lambda2",
    3: "t^3 - 3*lambda1*t^2 + (2*lambda1^2 + 16*lambda2)*t - 12*lambda1*lambda2",
    4: "t^4 - 6*lambda1*t^3 + (11*lambda1^2 + 28*lambda2)*t^2"
       " + (-6*lambda1^3 - 72*lambda1*lambda2)*t + 36*lambda1^2*lambda2 + 72*lambda2^2",
}

# Coefficients of each composite class in the degree-six basis, by index.
_SIJ_EXPANSIONS = {
    "s10": {3: "1", 1: "-60*lambda2", 0: "120*lambda1*lambda2"},
    "s11": {4: "1", 2: "-36*lambda2", 1: "60*lambda1*lambda2"},
    "s12": {5: "1", 3: "-18*lambda2", 2: "24*lambda1*lambda2"},
    "s13": {6: "1", 4: "-6*lambda2", 3: "6*lambda1*lambda2"},
    "s00": {2: "12", 1: "-60*lambda1", 0: "120*(lambda1^2 - lambda2)"},
    "s01": {3: "9", 2: "-36*lambda1", 1: "60*(lambda1^2 - lambda2)"},
    "s02'": {4: "3", 3: "-9*lambda1", 2: "12*(lambda1^2 - lambda2)"},
}

_DETERMINANT = "86400*(lambda1^2 - 4*lambda2)^3"

_GROTHENDIECK_FACTORS = (
    "(t^2 - 6*lambda1*t + 36*lambda2)*(t^2 - 6*lambda1*t + 5*lambda1^2 + 16*lambda2)"
    "*(t^2 - 6*lambda1*t + 8*lambda1^2 + 4*lambda2)*(t - 3*lambda1)"
)

_SIJ_POLYNOMIALS = {
    "s10": "t^3 - 3*lambda1*t^2 + (2*lambda1^2 - 44*lambda2)*t + 108*lambda1*lambda2",
    "s00": "12*t^2 - 72*lambda1*t + 120*lambda1^2 - 48*lambda2",
    "s02'": "3*t^4 - 27*lambda1*t^3 + (72*lambda1^2 + 72*lambda2)*t^2"
            " - (48*lambda1^3 + 348*lambda1*lambda2)*t"
            " + 288*lambda1^2*lambda2 + 144*lambda2^2",
}

# Rewritings against the twist class t - 2*lambda1; the last one refers to
# the first two classes by name.
_SIJ_REWRITES = {
    "s10": "20*lambda1*lambda2 + (t^2 - lambda1*t - 44*lambda2)*(t - 2*lambda1)",
    "s00": "24*lambda1^2 - 48*lambda2 + (12*t - 48*lambda1)*(t - 2*lambda1)",
    "s02'": "-60*(lambda1^2 - 4*lambda2)*(t - 3*lambda1)*(t - 2*lambda1)"
            " + (3*t - 6*lambda1)*s10 - (lambda1*t - 3*lambda1^2 + 3*lambda2)*s00",
}

_BOUNDARY_VARS = (("lambda1", 1), ("lambda2", 2), ("gamma", 1))
_BOUNDARY_RELATIONS = (
    "2*gamma",
    "gamma^2 + lambda1*gamma",
    "24*lambda1^2 - 48*lambda2",
    "24*lambda1*lambda2",
)
_BOUNDARY_IMPLIED = "576*lambda2^2"
# The Euler class of the doubled (4, 6) weights, the class on the torus of
# the locus where its second summand vanishes, and that class's two excision
# pushforwards to the classifying ring.
_BOUNDARY_EULER = "576*beta2^2"
_VANISHING_SUMMAND = "24*t2^2"
_BOUNDARY_EXCISION = {"push1": "24*beta1^2 - 48*beta2", "push2": "24*beta1*beta2"}

_OPEN_VARS = (("lambda1", 1), ("lambda2", 2))
_OPEN_RELATIONS = ("24*lambda1^2 - 48*lambda2", "20*lambda1*lambda2")
_TWIST_KERNEL = {
    "k3": "60*(lambda1^2 - 4*lambda2)*(t - 3*lambda1)",
    "k4": "5*lambda1*lambda2*(12*t - 48*lambda1)"
          " - (6*lambda1^2 - 12*lambda2)*(t^2 - lambda1*t - 44*lambda2)",
}
# The cofactors in (t - 2*lambda1)*k4 = c00*s00 - c10*s10.
_TWIST_KERNEL_COFACTORS = {"c00": "5*lambda1*lambda2", "c10": "6*lambda1^2 - 12*lambda2"}

_KAPPA_QUADRIC = "c1omega^2 - c1omega*lambda1 + lambda2 - S1"
# The square of the dualizing class plus S, rewritten through the quadric
# and the splitting S = S0 + S1.
_KAPPA_REWRITE = "c1omega*lambda1 - lambda2 + 2*S1 + S0"
_DELTA0 = "10*lambda1 - 2*delta1"

_DEGREE3_KERNEL = ("gamma*lambda1^2", "gamma*lambda2", "gamma*(lambda1^2 + lambda2)")
# Their boundary pushforwards, which stay nonzero mod 2 in the total ring.
_BOUNDARY_CLASSES = (
    "delta1*(delta1 + lambda1)*lambda1^2",
    "delta1*(delta1 + lambda1)*lambda2",
    "delta1*(delta1 + lambda1)*(lambda1^2 + lambda2)",
)

# The degree-4 class and its rewriting as a multiple of a boundary relation.
_IM5_IDENTITY = {"class": "(6*lambda1^2 - 12*lambda2)*4*lambda2",
                 "rewritten": "lambda2*(24*lambda1^2 - 48*lambda2)"}

_MAIN_VARS = (("lambda1", 1), ("lambda2", 2), ("delta1", 1))
_MAIN_RELATIONS = (
    "24*lambda1^2 - 48*lambda2",
    "20*lambda1*lambda2 - 4*delta1*lambda2",
    "delta1^3 + delta1^2*lambda1",
    "2*delta1^2 + 2*delta1*lambda1",
)

# The test family's relations, keyed by their names in `bielliptic_data`.
_RELZERO = {
    "euler_v31": "9*alpha2^2 - 2*alpha1^2*alpha2",
    "relz2": "4*alpha1^2 + 6*alpha1*beta1 + 4*beta1^2 + 2*alpha2 - 8*beta2",
    "relz3": "2*alpha1^2*beta1 + alpha2*beta1 + 12*alpha1*beta2 + 4*beta1*beta2 + alpha2*gamma",
    "euler_pairs": "4*alpha1^4 + 12*alpha1^3*beta1 + 8*alpha1^2*beta1^2 + 4*alpha1^2*alpha2"
                   " + 6*alpha1*alpha2*beta1 + 4*alpha2*beta1^2 + 20*alpha1^2*beta2"
                   " + 24*alpha1*beta1*beta2 + alpha1*alpha2*gamma + alpha2*beta1*gamma"
                   " + alpha2^2 - 8*alpha2*beta2 + 16*beta2^2",
}

_RELTRIP = {
    "rel_t1": "3*alpha2",
    "rel_t2": "alpha1*alpha2",
    "rel_t3": "4*alpha1*beta1 + 8*alpha1^2 - 6*alpha2",
    "rel_t4": "8*alpha1*beta2 + 4*alpha1^2*beta1 - 3*alpha2*beta1 + alpha2*gamma",
    "rel_t5": "9*alpha1^2 + 10*alpha1*beta1 + alpha1*gamma - 3*alpha2 + 12*beta2",
    "rel_t6": "alpha2*gamma - 10*alpha1^3 - 12*alpha1^2*beta1 - 5*alpha1*alpha2"
              " - 6*alpha2*beta1 - 16*alpha1*beta2",
}

# Class on the torus cover of the locus where the second linear form vanishes.
_VANISHING_FORM = "4*t2^2 + 6*alpha1*t2 + 2*alpha1^2 + alpha2"

# Pullbacks of lambda1, lambda2 and delta1 to the test family, and the
# inverse change of variables.
_TAUTOLOGICAL = {
    "lambda1": "-beta1 - 2*alpha1",
    "lambda2": "alpha1^2 + alpha1*beta1 + beta2",
    "delta1": "-3*alpha1 - 2*beta1 + gamma",
}
_CHANGE_OF_VARIABLES = {
    "alpha1": "-2*lambda1 + delta1 - gamma",
    "beta1": "3*lambda1 - 2*delta1 + 2*gamma",
}

_TEST_FAMILY_VARS = (("gamma", 1), ("delta1", 1), ("lambda1", 1), ("lambda2", 2))
_TEST_FAMILY_RELATIONS = (
    "2*gamma",
    "gamma^2 + lambda1*gamma",
    "delta1^2 + delta1*gamma + 8*lambda1^2 - 12*lambda2",
    "24*lambda1^2 - 48*lambda2",
    "2*delta1^2 + 2*lambda1*delta1",
    "20*lambda1*lambda2 - 4*delta1*lambda2",
    "8*lambda1^3 - 8*lambda1*lambda2",
)
_MOD2_RELATIONS = ("gamma^2 + lambda1*gamma", "delta1^2 + delta1*gamma")

# The two engines are compared on every monomial of degree at most this.
_ORACLE_DEGREE = 8


def _ideal(relations: Sequence[str]) -> str:
    return "(" + ", ".join(relations) + ")"


def _even(combo: SClassCombo) -> bool:
    """Whether every coefficient of every polynomial in the combination is even."""
    return all(c % 2 == 0 for p in combo.coeffs for c in p.term_map().values())


def _presentation(variables: Sequence[tuple], relations: Sequence[str], base: str = "ZZ") -> str:
    names = ", ".join(name for name, _ in variables)
    return f"{base}[{names}] / {_ideal(relations)}"


class Pipeline:
    """Shared context for all verifications.

    ``max_degree`` bounds one intermediate, ``twist_kernels``, which only
    ``thm:45`` reads; every other derivation is the same at every bound.

    ``corruption`` deliberately flips one coefficient in a named intermediate
    (currently only "delta1-excision").  It stays only because the benchmark
    in ``bench/`` passes it; faults are injected into every cached
    intermediate from outside, by ``tests/test_fault_sweep.py``.
    """

    QUOTIENT_GENERATORS = ("s00", "s10", "s02'")  # the twist quotient's, named in s6["polys"]

    def __init__(self, max_degree: int = 10, corruption: str | None = None):
        if max_degree < 5:
            raise ValueError("max_degree below 5 cannot exercise the stated results")
        if max_degree > 24:
            raise ValueError("max_degree above 24 is outside the supported range 5..24")
        if corruption not in (None, "delta1-excision"):
            raise ValueError(f"unknown corruption target {corruption!r}")
        self.max_degree = max_degree
        self.corruption = corruption

    # ------------------------------------------------------------------
    # shared rings
    # ------------------------------------------------------------------

    @cached_property
    def bg(self) -> RingSpec:
        return RingSpec.build(_BG_VARS, _BG_RELATIONS)

    @cached_property
    def alpha_ambient(self) -> RingSpec:
        """Product of the rank-2 classifying ring and the doubled-torus ring."""
        return RingSpec.build(
            (("alpha1", 1), ("alpha2", 2), ("beta1", 1), ("beta2", 2), ("gamma", 1)),
            _BG_RELATIONS,
        )

    @cached_property
    def groth_ring(self) -> Ring:
        # The hyperplane class is declared first so that normal forms in the
        # twist quotient eliminate it.
        return Ring(("t", 1), ("lambda1", 1), ("lambda2", 2))

    @property
    def presentations(self) -> dict[str, RingSpec]:
        """The six ring presentations of the pipeline, by name."""
        return {
            "classifying": self.bg,
            "boundary": self.delta1_ring,
            "twist-quotient": self.gm_data["spec"],
            "open-stratum": self.gm_data["open_stated"],
            "total": self.m2bar_ring,
            "bielliptic": self.bielliptic_data["stated"],
        }

    # ------------------------------------------------------------------
    # derived data blocks: they only compute; every comparison with a
    # stated text is made in the check that states it
    # ------------------------------------------------------------------

    @cached_property
    def bg_derivation(self):
        return bg_presentation(self.bg.ring)

    @cached_property
    def s6(self) -> dict:
        ring = self.groth_ring
        lam1, lam2 = ring.var("lambda1"), ring.var("lambda2")
        classes = BundleClasses(c1=-lam1, c2=lam2)
        table = srj_table(6, classes, ring.var("t"))
        ver0 = veronese_pushforward(3, 0, classes)
        ver1 = veronese_pushforward(3, 1, classes)
        s1j = [ver1.push_multiply(SClassCombo.unit(ring, 3, j)) for j in range(4)]
        s0j = [ver0.push_multiply(SClassCombo.unit(ring, 3, j)) for j in range(4)]
        combos = {f"s1{j}": combo for j, combo in enumerate(s1j)}
        combos.update({f"s0{j}": combo for j, combo in enumerate(s0j[:2])})
        halved = [ring.polynomial({e: c // 2 for e, c in p.term_map().items()})
                  for p in s0j[2].coeffs]
        combos["s02'"] = SClassCombo(6, halved)
        polys = {name: combo.expand(table) for name, combo in combos.items()}
        return {
            "table": table,
            "ver0": ver0,
            "ver1": ver1,
            "s1j": s1j,
            "s0j": s0j,
            "combos": combos,
            "polys": polys,
            "s02_evenness": _even(s0j[2]),
        }

    @cached_property
    def grothendieck_relation(self) -> IntPolynomial:
        """The degree-7 projective-bundle relation for the six-fold symmetric
        power, expanded from its Chern roots."""
        ring = self.groth_ring
        classes = BundleClasses(c1=-ring.var("lambda1"), c2=ring.var("lambda2"))
        return root_product([classes], [(ring.var("t"), (i, 6 - i)) for i in range(7)])

    @cached_property
    def delta1_data(self) -> dict:
        euler46 = self.bg.normal_form(wn_chern(4, self.bg)[1] * wn_chern(6, self.bg)[1])

        # Class of the locus where the second summand vanishes, on the torus:
        # the top Chern class of the complementary weight-(4, 6) summand.
        torus = Ring(("t1", 1), ("t2", 1))
        t2v = torus.var("t2")
        z0 = (4 * t2v) * (6 * t2v)

        push1 = bt_pushforward(z0, self.bg)
        push2 = bt_pushforward(z0 * torus.var("t1"), self.bg)
        if self.corruption == "delta1-excision":
            push2 = push2 - self.bg.parse("beta1*beta2")

        stated = RingSpec.build(_BOUNDARY_VARS, _BOUNDARY_RELATIONS)
        ring = stated.ring
        alias = {"beta1": ring.var("lambda1"), "beta2": ring.var("lambda2")}
        derived_gens = tuple(
            g.substitute(alias, target=ring)
            for g in (*self.bg_derivation.substituted_relations, push1, push2, euler46)
        )
        derived = RingSpec(ring, derived_gens)
        return {
            "euler46": euler46,
            "z0": z0,
            "push1": push1,
            "push2": push2,
            "derived": derived,
            "stated": stated,
        }

    @cached_property
    def delta1_ring(self) -> RingSpec:
        return self.delta1_data["derived"]

    @cached_property
    def gm_data(self) -> dict:
        gens = tuple(self.s6["polys"][name] for name in self.QUOTIENT_GENERATORS)
        open_stated = RingSpec.build(_OPEN_VARS, _OPEN_RELATIONS)
        open_ring = open_stated.ring
        quotient_gens = tuple(
            g.substitute({"t": 2 * open_ring.var("lambda1")}, target=open_ring) for g in gens
        )
        return {
            "spec": RingSpec(self.groth_ring, gens),
            "quotient_gens": quotient_gens,
            "open_stated": open_stated,
        }

    @cached_property
    def twist_kernels(self) -> list:
        """Hermite bases of the kernel of multiplication by t - 2*lambda1 on
        the twist quotient, by degree through ``max_degree``: the one
        intermediate that reads the degree bound."""
        spec = self.gm_data["spec"]
        twist = spec.ring.var("t") - 2 * spec.ring.var("lambda1")
        return multiplication_kernel(spec, twist, self.max_degree)

    @cached_property
    def grr_data(self) -> dict:
        ring = Ring(("c1omega", 1), ("lambda1", 1), ("lambda2", 2), ("S1", 2))
        c, lam1, lam2, s1 = (ring.var(name) for name in ring.names)
        kappa_class = chern_series_quotient([ring.one(), lam1, lam2], [ring.one(), c, s1], 2)

        # Linear assembly: rewrite the square of the dualizing class plus
        # S = S0 + S1 through the derived quadric (solved for c1omega^2), push
        # forward by the known values, and solve.
        big = Ring(
            ("c1omega", 1), ("S0", 2), ("S1", 2),
            ("lambda1", 1), ("lambda2", 2), ("delta0", 1), ("delta1", 1),
        )
        cb, s0b, s1b = big.var("c1omega"), big.var("S0"), big.var("S1")
        lam1b, lam2b = big.var("lambda1"), big.var("lambda2")
        d0, d1 = big.var("delta0"), big.var("delta1")
        rewritten = cb * cb - kappa_class.into(big) + s0b + s1b

        # Pushforward values of the fiber classes c1omega, S0 and S1; a class
        # pulled back from the base pushes to zero.
        fiber_images = {
            (1, 0, 0): big.const(2), (0, 1, 0): d0, (0, 0, 1): d1, (0, 0, 0): big.zero(),
        }
        by_fiber = rewritten.coefficients(("c1omega", "S0", "S1"))
        leftover = [pattern for pattern in by_fiber if pattern not in fiber_images]
        pushed = big.zero()
        for pattern, base in by_fiber.items():
            if pattern in fiber_images:
                pushed = pushed + fiber_images[pattern] * base

        delta0_solution = 12 * lam1b - (pushed - d0)
        rel3 = 2 * delta0_solution * lam2b
        return {
            "kappa_ring": ring,
            "kappa_class": kappa_class,
            "rewritten": rewritten,
            "leftover": leftover,
            "pushed": pushed,
            "delta0_solution": delta0_solution,
            "rel3": rel3,
            "big": big,
        }

    @cached_property
    def main_data(self) -> RingSpec:
        ring = self.m2bar_ring.ring
        # The boundary presentation's first four generators are the two
        # involution-class relations and the two excision pushforwards; the
        # fifth (the Euler class they imply) adds nothing to the pushforward.
        pushed = [
            pushforward_boundary_to_total(g, ring)
            for g in self.delta1_ring.generators[:4]
        ]
        # The self-node relation is the one the GRR assembly of delta0 derives.
        six = [ring.parse(_MAIN_RELATIONS[0]), self.grr_data["rel3"].into(ring)] + pushed
        return RingSpec(ring, six)

    @cached_property
    def m2bar_ring(self) -> RingSpec:
        return RingSpec.build(_MAIN_VARS, _MAIN_RELATIONS)

    # -- bielliptic family ----------------------------------------------------

    @cached_property
    def bielliptic_data(self) -> dict:
        amb = self.alpha_ambient
        ar = amb.ring
        # One working ring: the ambient classes, the torus roots t1, t2, the
        # hyperplane classes x1..x4 of the line factors and that (w) of the
        # weight -2 factor.  Every relation reaches the ambient ring through
        # its normal form there.
        wr = ar.extend(
            ("t1", 1), ("t2", 1), ("x1", 1), ("x2", 1), ("x3", 1), ("x4", 1), ("w", 1)
        )
        alpha1, t1, t2, w = wr.var("alpha1"), wr.var("t1"), wr.var("t2"), wr.var("w")

        def ambient(p: IntPolynomial) -> IntPolynomial:
            return amb.normal_form(p.into(ar))

        # The twisted cubics have roots (i - 1) r1 + (2 - i) r2 in the roots
        # of the rank-2 bundle; the paired linear forms add one root of the
        # doubled weight -2 to the roots r1 + 2 r2 and 2 r1 + r2.
        cls_v1 = BundleClasses(c1=-alpha1, c2=wr.var("alpha2"))
        w_m2 = wn_chern(-2, self.bg)
        e2_wm2 = BundleClasses(c1=w_m2[0].into(wr), c2=w_m2[1].into(wr))
        euler_v31 = ambient(
            root_product([cls_v1], [(wr.zero(), (i - 1, 2 - i)) for i in range(4)])
        )
        euler_pairs = ambient(
            root_product(
                [cls_v1, e2_wm2],
                [(wr.zero(), (m, 3 - m, k, 1 - k)) for m in (1, 2) for k in (0, 1)],
            )
        )

        # Locus where the second linear form vanishes, on the torus cover:
        # the top Chern class of the rank-2 bundle with roots r - alpha1 - 2 t2.
        shift = -alpha1 - 2 * t2
        z0 = root_product([cls_v1], [(shift, (1, 0)), (shift, (0, 1))])
        relz2 = bt_pushforward(z0, amb)
        relz3 = bt_pushforward(z0 * t1, amb)
        relzero = dict(euler_v31=euler_v31, relz2=relz2, relz3=relz3, euler_pairs=euler_pairs)

        # Triple-root locus of the cubic: the degree-3 table evaluated at the
        # hyperplane class set to alpha1, pushed along the cubing map.
        s3_values = srj_table(3, cls_v1, alpha1)
        rel_t1 = ambient(veronese_pushforward(3, 0, cls_v1).expand(s3_values))
        rel_t2 = ambient(veronese_pushforward(3, 1, cls_v1).expand(s3_values))

        # Square-of-a-linear-form divides the cubic: triple diagonal on the
        # middle line factor, then the 3-fold multiplication (the first
        # factor's hyperplane class never occurs, but the map is 3-fold).
        diag3 = diagonal_class(cls_v1, ("x2", "x3", "x4"))
        combo = push_multiplication_power(diag3, ("x1", "x2", "x3"), cls_v1)
        pushed_sq = combo.expand(s3_values).substitute({"x4": shift})
        rel_t3 = bt_pushforward(pushed_sq, amb)
        rel_t4 = bt_pushforward(pushed_sq * t1, amb)

        # All three forms share a common factor: push the fundamental class
        # and the second hyperplane class along (conic, line, line) ->
        # (cubic, tensor product), by the diagonal on the shared line factor,
        # then multiplication and Segre.
        def push(p: IntPolynomial) -> IntPolynomial:
            acc = wr.zero()
            for (e1, e2, ew), base in p.coefficients(("x1", "x2", "w")).items():
                if e1 > 1 or e2 > 1 or ew > 1:
                    raise ValueError("reduce hyperplane powers before pushing")
                # line x conic -> cubic
                mult = SClassCombo.unit(wr, 1, e1).push_multiply(SClassCombo.unit(wr, 2, 0))
                seg_value = segre_pushforward((e2, ew), cls_v1, e2_wm2, -alpha1)
                acc = acc + base * mult.expand(s3_values) * seg_value
            return acc

        diag = diagonal_class(cls_v1, ("x1", "x2"))
        rel_t5, rel_t6 = ambient(push(diag)), ambient(push(diag * w))

        reltrip = dict(rel_t1=rel_t1, rel_t2=rel_t2, rel_t3=rel_t3,
                       rel_t4=rel_t4, rel_t5=rel_t5, rel_t6=rel_t6)

        # Tautological classes and the inverse change of variables.
        taut_lambda1, taut_lambda2 = (ar.parse(_TAUTOLOGICAL[k]) for k in ("lambda1", "lambda2"))
        taut_delta1 = ambient(segre_pushforward((0, 0), cls_v1, e2_wm2, -alpha1))

        stated = RingSpec.build(_TEST_FAMILY_VARS, _TEST_FAMILY_RELATIONS)
        lr = stated.ring
        gl, dl, l1, l2 = (lr.var(n) for n in ("gamma", "delta1", "lambda1", "lambda2"))
        phi = {name: lr.parse(text) for name, text in _CHANGE_OF_VARIABLES.items()}
        phi["gamma"] = gl
        phi["beta2"] = l2 - phi["alpha1"] ** 2 - phi["alpha1"] * phi["beta1"]
        phi["alpha2"] = 2 * l1 * dl - 2 * l1 * gl - 8 * l2

        all_alpha_gens = (*amb.generators, *relzero.values(), *reltrip.values())
        derived_gens = tuple(g.substitute(phi, target=lr) for g in all_alpha_gens)
        derived = RingSpec(lr, derived_gens)
        return {
            "z0": z0,
            "relzero": relzero,
            "reltrip": reltrip,
            "taut": (taut_lambda1, taut_lambda2, taut_delta1),
            "phi": phi,
            "derived": derived,
            "stated": stated,
        }

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------

    def check_bg(self) -> str:
        deriv = self.bg_derivation
        groth = deriv.grothendieck_relation
        amb = groth.ring
        _expect(
            groth, amb.parse(_BG_BUNDLE_FACTORS),
            "projective-bundle relation does not factor as stated:",
        )
        rel1, rel2 = deriv.excision_relations
        _expect((rel1, rel2), tuple(map(amb.parse, _BG_EXCISION)), "excision relations came out as")
        _require(
            RingSpec(amb, (rel1, rel2)).contains(groth),
            "bundle relation is not implied by the excision relations",
        )
        # Equal generators, in order, present the same ideal as the pipeline's
        # classifying ring without completing a second basis.
        _expect(
            deriv.substituted_relations, self.bg.generators,
            "derived presentation differs from the stated one:",
        )
        return (
            f"excision relations: {rel1} and {rel2}\n"
            f"degree-7 bundle relation {groth} lies in their ideal\n"
            f"substituted relations: {deriv.substituted_relations[0]},"
            f" {deriv.substituted_relations[1]}\n"
            f"final presentation equals {_ideal(_BG_RELATIONS)}"
        )

    def check_s6_table(self) -> str:
        table = {j: self.s6["table"][j] for j in range(5)}  # as the paper tabulates
        stated = {j: self.groth_ring.parse(text) for j, text in _S6_TABLE.items()}
        _expect_table(table, stated, "s6 table entries", "s6^{} =")
        return "\n".join(f"s6^{j} = {cls}" for j, cls in table.items())

    def check_sij_expansions(self) -> str:
        ring = self.groth_ring
        combos = self.s6["combos"]
        _require(self.s6["s02_evenness"], "halving failed: odd coefficient in the squared term")
        stated = {name: SClassCombo(6, [ring.parse(coeffs.get(j, "0")) for j in range(7)])
                  for name, coeffs in _SIJ_EXPANSIONS.items()}
        _expect_table(combos, stated, "composite expansions", "{} expands as")
        return "\n".join(f"{name} = {combo}" for name, combo in combos.items())

    def check_det_7x7(self) -> str:
        rows = [list(combo.coeffs) for combo in self.s6["combos"].values()]
        det = determinant_expansion(rows)
        _expect(det, self.groth_ring.parse(_DETERMINANT), "determinant is")
        return f"7x7 independence matrix determinant = {det}"

    def check_cub_compat(self) -> str:
        ver0, ver1 = self.s6["ver0"], self.s6["ver1"]
        s1j, s0j = self.s6["s1j"], self.s6["s0j"]
        lhs, rhs, fundamental = (
            SClassCombo(6, [weights.expand(column)
                            for column in zip(*(c.coeffs for c in combos))])
            for weights, combos in ((ver0, s1j), (ver1, s0j), (ver0, s0j))
        )
        # The conic hyperplane class arrives two ways: cube the second line
        # factor of a product of two lines, or cube the first.  Both composite
        # expansions must agree in the degree-six basis.
        _require(
            lhs.coeffs == rhs.coeffs,
            "the two composite expansions of the cubed conic class disagree",
        )
        # The fundamental-class identity carries the factor 2 on its left side,
        # so every coefficient of its right side must be even.
        _require(
            _even(fundamental), "the doubled fundamental-class expansion has an odd coefficient"
        )
        return (
            "both composite expansions of the cubed conic class agree:\n"
            f"  {lhs}\n"
            "and the doubled fundamental-class expansion is even throughout"
        )

    def check_groth_factor(self) -> str:
        stated = self.groth_ring.parse(_GROTHENDIECK_FACTORS)
        _expect(self.grothendieck_relation, stated, "root expansion gives")
        return f"degree-7 relation factors as stated: {stated}"

    def check_sij_rewrites(self) -> str:
        ring = self.groth_ring
        polys = self.s6["polys"]
        gens = {name: polys[name] for name in self.QUOTIENT_GENERATORS}
        stated = {name: ring.parse(text) for name, text in _SIJ_POLYNOMIALS.items()}
        _expect_table(gens, stated, "quotient generators", "{} =")
        named = ring.extend(("s10", 3), ("s00", 2))
        rewritten = {name: named.parse(text).substitute(gens, target=ring)
                     for name, text in _SIJ_REWRITES.items()}
        _expect_table(gens, rewritten, "quotient generator rewritings", "{} rewriting fails:")
        return "\n".join(f"{name} = {text}" for name, text in _SIJ_REWRITES.items())

    def check_groth_membership(self) -> str:
        ring = self.groth_ring
        polys = self.s6["polys"]
        spec = RingSpec(ring, (polys["s00"], polys["s10"]))
        _require(
            spec.contains(self.grothendieck_relation),
            "the degree-7 relation is not in the two-generator ideal",
        )
        # The halved class itself is a fresh generator; only its double is a
        # pushforward, so membership is asserted for the unhalved classes.
        members = {name: poly for name, poly in polys.items() if name != "s02'"}
        members["s02"] = 2 * polys["s02'"]
        for name, poly in members.items():
            _require(spec.contains(poly), f"{name} is not in the two-generator ideal")
        return (
            "the degree-7 bundle relation and the seven pushforward classes lie in"
            " the ideal generated by the degree-2 and degree-3 ones"
        )

    def check_adelta1(self) -> str:
        data = self.delta1_data
        z0 = data["z0"]
        for derived, stated, what in (
            (data["euler46"], self.bg.parse(_BOUNDARY_EULER),
             "euler class of the doubled (4,6) weights is"),
            (z0, z0.ring.parse(_VANISHING_SUMMAND), "vanishing-summand class is"),
            *((data[key], self.bg.parse(_BOUNDARY_EXCISION[key]), f"{nth} excision pushforward is")
              for key, nth in (("push1", "first"), ("push2", "second"))),
        ):
            _expect(derived, stated, what)
        derived, stated = data["derived"], data["stated"]
        _require(
            ideal_equal(derived, stated),
            "derived boundary ideal differs from the stated presentation",
        )
        _require(
            stated.contains(stated.parse(_BOUNDARY_IMPLIED)),
            f"{_BOUNDARY_IMPLIED} is not implied by the stated relations",
        )
        # This makes every multiple of gamma 2-torsion, in every degree.
        _require(
            stated.contains(2 * stated.ring.var("gamma")),
            "2*gamma should vanish (involution classes are 2-torsion)",
        )
        return (
            f"excision pushforwards: {data['push1']} and {data['push2']}\n"
            f"euler class: {data['euler46']}\n"
            f"derived ideal equals {_ideal(_BOUNDARY_RELATIONS)};"
            f" {_BOUNDARY_IMPLIED} is implied; all involution-class multiples die"
            " after inverting 2 (degrees 1..5)"
        )

    def check_thm45(self) -> str:
        data = self.gm_data
        ring = self.groth_ring
        t = ring.var("t")
        twist = t - 2 * ring.var("lambda1")
        open_derived = RingSpec(data["open_stated"].ring, data["quotient_gens"])
        _require(
            ideal_equal(open_derived, data["open_stated"]),
            "twist quotient does not match the stated two-relation presentation",
        )
        # A twist class led by monic t puts a basis element led by t into
        # I + (t - 2*lambda1), so no normal form of the twist quotient keeps
        # the hyperplane class, in any degree.
        _require(
            twist.leading_term() == t.leading_term(),
            "the twist class is not led by the hyperplane class",
        )
        spec = data["spec"]
        k3, k4 = (ring.parse(_TWIST_KERNEL[k]) for k in ("k3", "k4"))
        _require(spec.contains(k3 * twist), "degree-3 class is not in the kernel")
        _require(spec.contains(k4 * twist), "degree-4 class is not in the kernel")
        # Both kernel generators are honest 2-torsion classes in the quotient.
        for k in (k3, k4):
            _require(not spec.contains(k), "kernel generator vanishes in the quotient")
            _require(spec.contains(2 * k), "kernel generator is not 2-torsion")
        c00, c10 = (ring.parse(_TWIST_KERNEL_COFACTORS[k]) for k in ("c00", "c10"))
        polys = self.s6["polys"]
        identity = twist * k4 - (c00 * polys["s00"] - c10 * polys["s10"])
        _require(identity == 0, "degree-4 kernel witness identity fails")
        # (I : m) = I + (k3, k4) in degree d exactly when the two lattices
        # have the same Hermite basis; below degree 3 the right side is I.
        generated = spec.with_relations(k3, k4)
        for d, kernel in enumerate(self.twist_kernels):
            _require(
                kernel == generated.lattice(d),
                f"kernel piece in degree {d} should vanish" if d < 3
                else f"kernel piece in degree {d} is not generated by the two classes",
            )
        return (
            f"twist quotient ring = {_presentation(_OPEN_VARS, _OPEN_RELATIONS)}\n"
            f"kernel of multiplication by {twist}: trivial below degree 3,"
            f" generated by\n  {k3}\n  {k4}\n"
            f"verified through degree {self.max_degree}"
        )

    def check_kappa(self) -> str:
        stated = self.grr_data["kappa_ring"].parse(_KAPPA_QUADRIC)
        _expect(self.grr_data["kappa_class"], stated, "series quotient gives")
        return f"degree-2 series quotient = {stated}"

    def check_delta0(self) -> str:
        data = self.grr_data
        big = data["big"]
        _expect(data["rewritten"], big.parse(_KAPPA_REWRITE), "quadric rewriting gives")
        _require(not data["leftover"], "unexpected monomials survived the pushforward")
        _expect(data["delta0_solution"], big.parse(_DELTA0), "linear assembly gives")
        rel3_stated = big.parse(_MAIN_RELATIONS[1])
        _expect(data["rel3"], rel3_stated, "doubled relation gives")
        return (
            f"pushforward assembly: 12*lambda1 = {data['pushed']}\n"
            f"so delta0 = {data['delta0_solution']};"
            f" doubling against lambda2 gives {rel3_stated} = 0\n"
            f"recorded relations: {_MAIN_RELATIONS[0]} = 0 (doubled pushforward"
            " of the dualizing class against the singular locus, 2-torsion halved)"
            " and the doubled relation above"
        )

    def check_degree3_kernel(self) -> str:
        spec = self.delta1_ring
        ring = spec.ring
        gamma, lam1 = ring.var("gamma"), ring.var("lambda1")
        elements = enumerate_kernel_elements(spec, gamma - lam1, 3)
        stated = [ring.parse(text) for text in _DEGREE3_KERNEL]
        _expect(
            elements, sorted(map(spec.normal_form, stated), key=str), "kernel enumeration gives"
        )
        target = self.m2bar_ring.ring
        pushed = [pushforward_boundary_to_total(p, target) for p in stated]
        _expect(
            pushed, [target.parse(text) for text in _BOUNDARY_CLASSES],
            "boundary pushforwards differ from the stated classes:",
        )
        for p in stated:
            _require(
                spec.contains(p * (gamma - lam1)),
                f"{p} is not killed by the involution-difference class",
            )
        return (
            "degree-3 kernel of multiplication by gamma - lambda1 is exactly\n  "
            + "\n  ".join(str(p) for p in stated)
            + "\nwith boundary pushforwards\n  "
            + "\n  ".join(str(p) for p in pushed)
        )

    def check_im5(self) -> str:
        spec = self.delta1_ring
        ring = spec.ring
        cls, identity = (ring.parse(_IM5_IDENTITY[k]) for k in ("class", "rewritten"))
        _require(cls == identity, "rewriting into the doubled relation fails")
        _require(cls.weighted_degree() == 4, "the checked class must have degree 4")
        _require(spec.contains(cls), "the degree-5 image class does not vanish")
        return (
            f"{_IM5_IDENTITY['class']} = {identity} = 0"
            " in the boundary ring (degree 4)"
        )

    def check_main(self) -> str:
        six = self.main_data
        stated = self.m2bar_ring
        ring = stated.ring
        _require(
            ideal_equal(six, stated),
            "the six derived relations do not generate the stated ideal",
        )
        delta0 = ring.parse(_DELTA0)
        _require(
            stated.contains(2 * delta0 * ring.var("lambda2")),
            "the self-node relation does not hold in the quotient",
        )
        lines = [f"  {g}" for g in six.generators]
        return (
            "the six localization relations\n"
            + "\n".join(lines)
            + f"\ngenerate exactly {_ideal(_MAIN_RELATIONS)}"
        )

    def check_bielliptic_euler(self) -> str:
        rel = self.bielliptic_data["relzero"]
        amb = self.alpha_ambient
        for key, what in (("euler_v31", "cubic"), ("euler_pairs", "pair")):
            _expect(rel[key], amb.normal_form(amb.parse(_RELZERO[key])), f"{what} euler class is")
        return (
            f"euler class of the twisted cubics: {rel['euler_v31']}\n"
            f"euler class of the paired linear forms: {rel['euler_pairs']}"
        )

    def _test_family_relations(self, kind: str, derived: dict, texts: dict[str, str]) -> str:
        """Compare the derived relations with the stated texts in the ambient ring."""
        amb = self.alpha_ambient
        _expect_table(
            {key: amb.normal_form(rel) for key, rel in derived.items()},
            {key: amb.normal_form(amb.parse(text)) for key, text in texts.items()},
            f"{kind} relations", f"{kind} relation mismatch: derived",
        )
        return f"{kind} relations reproduced from primitives:\n" + "\n".join(
            f"  {text} = 0" for text in texts.values()
        )

    def check_relzero(self) -> str:
        data = self.bielliptic_data
        z0 = data["z0"]
        _expect(z0, z0.ring.parse(_VANISHING_FORM), "vanishing-form class evaluates to")
        return self._test_family_relations("zero-section", data["relzero"], _RELZERO)

    def check_reltrip(self) -> str:
        data = self.bielliptic_data
        return self._test_family_relations("triple-root", data["reltrip"], _RELTRIP)

    def check_bielliptic_ring(self) -> str:
        data = self.bielliptic_data
        t1, t2, t3 = data["taut"]
        _expect(t3, t3.ring.parse(_TAUTOLOGICAL["delta1"]), "boundary class pullback is")
        lr = data["stated"].ring
        phi = data["phi"]
        _require(
            t1.substitute(phi, target=lr) == lr.var("lambda1")
            and t2.substitute(phi, target=lr) == lr.var("lambda2")
            and t3.substitute(phi, target=lr) == lr.var("delta1"),
            "the inverse change of variables does not invert the tautological classes",
        )
        alpha2_expr = (
            4 * phi["alpha1"] ** 2
            + 6 * phi["alpha1"] * phi["beta1"]
            + 4 * phi["beta1"] ** 2
            - 8 * phi["beta2"]
        )
        _require(
            phi["alpha2"] == alpha2_expr,
            "the eliminated quadratic class does not match its defining combination",
        )
        stated = data["stated"]
        _require(
            ideal_equal(data["derived"], stated),
            "substituted relations do not generate the stated seven relations",
        )
        return (
            f"change of variables: alpha1 = {_CHANGE_OF_VARIABLES['alpha1']},"
            f" beta1 = {_CHANGE_OF_VARIABLES['beta1']},\n"
            f"  beta2 = {phi['beta2']},\n  alpha2 = {phi['alpha2']}\n"
            "substituted ideal equals the stated seven relations"
        )

    def check_bielliptic_mod2(self) -> str:
        data = self.bielliptic_data
        lr = data["stated"].ring
        two = lr.const(2)
        mod2_gens = (two, *(lr.parse(text) for text in _MOD2_RELATIONS))
        mod2_spec = RingSpec(lr, mod2_gens)
        _require(
            ideal_equal(data["stated"].with_relations(two), mod2_spec),
            "mod-2 reduction does not give the stated two-relation presentation",
        )
        main = self.m2bar_ring
        for g in main.generators:
            _require(
                mod2_spec.contains(g.into(lr)),
                f"restriction is not defined mod 2: image of {g} does not vanish",
            )
        main_mod2 = main.with_relations(main.ring.const(2))
        lines = []
        pieces: dict[int, object] = {}
        for text in _BOUNDARY_CLASSES:
            cls = lr.parse(text)
            downstairs = mod2_spec.normal_form(cls)
            _require(bool(downstairs), f"{text} vanishes mod 2 in the test-family ring")
            d = cls.weighted_degree()
            if d not in pieces:
                pieces[d] = graded_piece(mod2_spec, d)
            _require(
                not pieces[d].is_zero(cls),
                f"{text}: the Smith-form engine disagrees with the Groebner engine",
            )
            upstairs = main_mod2.normal_form(main.parse(text))
            _require(bool(upstairs), f"{text} vanishes mod 2 in the total ring")
            lines.append(f"  {text} != 0 (mod 2)")
        return (
            "mod 2 the test-family ring is"
            f" {_presentation(_TEST_FAMILY_VARS, _MOD2_RELATIONS, base='(Z/2)')},\n"
            "the restriction from the total ring is defined, and\n"
            + "\n".join(lines)
        )

    def check_oracle_agreement(self) -> str:
        for name, spec in self.presentations.items():
            for d in range(_ORACLE_DEGREE + 1):
                _require(
                    membership_matches_normal_form(spec, d),
                    f"oracle disagreement in {name} ring, degree {d}",
                )
        return (
            "Groebner normal forms and Smith-form membership agree on every"
            f" monomial of every pipeline ring through degree {_ORACLE_DEGREE}"
        )

    # ------------------------------------------------------------------
    # registry and execution
    # ------------------------------------------------------------------

    CHECKS: tuple[CheckDef, ...] = (
        CheckDef("thm:bg", "classifying-space-presentation",
                 "Presentation of the swap-extended torus classifying ring",
                 (), check_bg,
                 f"excision relations {_BG_EXCISION[0]} and {_BG_EXCISION[1]};\n"
                 f"final presentation {_presentation(_BG_VARS, _BG_RELATIONS)}"),
        CheckDef("s6-table", "pushforward-basis-table",
                 "Degree-six pushforward basis classes",
                 (), check_s6_table,
                 "\n".join(f"s6^{j} = {text}" for j, text in _S6_TABLE.items())),
        CheckDef("sij-expansions", "pushforward-class-expansions",
                 "Expansions of the seven composite pushforward classes",
                 (), check_sij_expansions,
                 "\n".join(
                     f"{name}: " + ", ".join(f"s6^{j} coeff {c}" for j, c in stated.items())
                     for name, stated in _SIJ_EXPANSIONS.items()
                 )),
        CheckDef("det-7x7", "independence-determinant",
                 "Determinant of the 7x7 independence matrix",
                 ("sij-expansions",), check_det_7x7, _DETERMINANT),
        CheckDef("cub-compat", "cubing-diagram-compatibility",
                 "Compatibility of the cubing and multiplication pushforwards",
                 ("sij-expansions",), check_cub_compat,
                 "the two factorizations of the squared-then-cubed pushforward agree"
                 " and the doubled fundamental-class expansion is even"),
        CheckDef("groth-factor", "bundle-relation-factorization",
                 "Factorization of the degree-7 bundle relation",
                 (), check_groth_factor, _GROTHENDIECK_FACTORS),
        CheckDef("sij-rewrites", "relation-rewritings",
                 "Rewriting of the three quotient relations against the twist class",
                 ("s6-table", "sij-expansions"), check_sij_rewrites,
                 "\n".join(f"{name} = {text}" for name, text in _SIJ_REWRITES.items())),
        CheckDef("groth-membership", "two-generator-membership",
                 "Membership of the bundle relation and all pushforward classes",
                 ("groth-factor", "sij-rewrites"), check_groth_membership,
                 "p, s10, s11, s12, s13, s00, s01, s02 all lie in (s00, s10)"),
        CheckDef("adelta1", "boundary-stratum-ring",
                 "Presentation of the disconnecting-node boundary ring",
                 ("thm:bg",), check_adelta1,
                 f"{_presentation(_BOUNDARY_VARS, _BOUNDARY_RELATIONS)};"
                 f" {_BOUNDARY_IMPLIED} implied"),
        CheckDef("thm:45", "open-stratum-ring",
                 "Presentation of the open stratum and its twist kernel",
                 ("sij-rewrites",), check_thm45,
                 f"{_presentation(_OPEN_VARS, _OPEN_RELATIONS)};\n"
                 f"kernel generated by {_TWIST_KERNEL['k3']} and\n{_TWIST_KERNEL['k4']}"),
        CheckDef("kappa", "dualizing-class-quadric",
                 "Quadric satisfied by the relative dualizing class",
                 (), check_kappa, f"{_KAPPA_QUADRIC} = 0"),
        CheckDef("delta0", "self-node-class",
                 "Linear assembly of the self-node boundary class",
                 ("kappa",), check_delta0,
                 f"delta0 = {_DELTA0}; {_MAIN_RELATIONS[1]} = 0"),
        CheckDef("degree3-kernel", "boundary-degree3-kernel",
                 "Enumeration of the degree-3 boundary kernel",
                 ("adelta1",), check_degree3_kernel,
                 f"exactly {', '.join(_DEGREE3_KERNEL)};"
                 f" pushforwards {', '.join(_BOUNDARY_CLASSES)}"),
        CheckDef("im5", "degree5-image-vanishing",
                 "Vanishing of the degree-5 image class in the boundary ring",
                 ("adelta1",), check_im5, " = ".join(_IM5_IDENTITY.values()) + " = 0"),
        CheckDef("thm:main", "total-ring-presentation",
                 "The six localization relations present the total ring",
                 ("adelta1", "delta0"), check_main,
                 _presentation(_MAIN_VARS, _MAIN_RELATIONS)),
        CheckDef("bielliptic-euler", "test-family-euler-classes",
                 "Euler classes of the test-family zero sections",
                 ("thm:bg",), check_bielliptic_euler,
                 f"{_RELZERO['euler_v31']} and\n{_RELZERO['euler_pairs']}"),
        CheckDef("relzero", "zero-section-relations",
                 "Zero-section relations of the test family",
                 ("bielliptic-euler",), check_relzero,
                 "\n".join(f"{text} = 0" for text in _RELZERO.values())),
        CheckDef("reltrip", "triple-root-relations",
                 "Triple-root relations of the test family",
                 ("thm:bg",), check_reltrip,
                 "\n".join(f"{text} = 0" for text in _RELTRIP.values())),
        CheckDef("bielliptic-ring", "test-family-ring",
                 "Presentation of the test-family ring",
                 ("relzero", "reltrip"), check_bielliptic_ring,
                 _presentation(_TEST_FAMILY_VARS, _TEST_FAMILY_RELATIONS)),
        CheckDef("bielliptic-mod2", "mod-two-nonvanishing",
                 "Mod-2 presentation and nonvanishing of the three boundary classes",
                 ("bielliptic-ring", "thm:main"), check_bielliptic_mod2,
                 f"{_presentation(_TEST_FAMILY_VARS, _MOD2_RELATIONS, base='(Z/2)')};"
                 " the three boundary classes are nonzero"),
        CheckDef("oracle-agreement", "engine-cross-check",
                 "Agreement of the Groebner and Smith-form engines",
                 ("adelta1", "thm:45", "thm:main", "bielliptic-ring"),
                 check_oracle_agreement,
                 "normal form vanishing == Smith-form membership, and each Hermite"
                 " pivot of I_d == the gcd of the Groebner leads dividing its monomial,"
                 f" all rings, degrees <= {_ORACLE_DEGREE}"),
    )

    @classmethod
    def check_ids(cls) -> list[str]:
        return [c.id for c in cls.CHECKS]

    @classmethod
    def check_def(cls, check_id: str) -> CheckDef:
        for c in cls.CHECKS:
            if c.id == check_id:
                return c
        raise UnknownCheckError([check_id], cls.check_ids())

    def run_check(self, check_id: str) -> LemmaCheck:
        cdef = self.check_def(check_id)
        start = time.perf_counter()
        try:
            witness = cdef.run(self)
            status = "pass"
        except CheckFailure as exc:
            witness = str(exc)
            status = "fail"
        except Exception as exc:  # failures are data, never crashes
            witness = f"{type(exc).__name__}: {exc}"
            status = "fail"
        elapsed = int((time.perf_counter() - start) * 1000)
        return LemmaCheck(
            id=cdef.id,
            anchor=cdef.anchor,
            status=status,
            witness=witness,
            elapsed_ms=elapsed,
        )

    def run(
        self, ids: Sequence[str] | None = None, fail_fast: bool = False
    ) -> VerificationReport:
        selected = list(ids) if ids is not None else self.check_ids()
        if not selected:
            raise ValueError("no check selected; give at least one check id")
        bad = [i for i in selected if i not in self.check_ids()]
        if bad:
            raise UnknownCheckError(bad, self.check_ids())
        ordered = [c.id for c in self.CHECKS if c.id in selected]
        checks = []
        for check_id in ordered:
            result = self.run_check(check_id)
            checks.append(result)
            if fail_fast and result.status == "fail":
                break
        return VerificationReport(max_degree=self.max_degree, checks=checks)

    @classmethod
    def explain(cls, check_id: str) -> str:
        cdef = cls.check_def(check_id)
        chain = []

        def walk(cid: str):
            # Dependencies form a DAG, so a check is on the chain once walked.
            if cid in chain:
                return
            for dep in cls.check_def(cid).deps:
                walk(dep)
            chain.append(cid)

        walk(check_id)
        dep_text = " -> ".join(chain)
        return (
            f"check:     {cdef.id}\n"
            f"anchor:    {cdef.anchor}\n"
            f"statement: {cdef.title}\n"
            f"witness:\n{cdef.stated}\n"
            f"dependency chain: {dep_text}"
        )

