"""Fault injection into every cached intermediate of the pipeline.

Each row stores one perturbed intermediate into a fresh ``Pipeline()``, runs
all 21 checks at degree 10 and states what notices the fault: the checks that
fail, each with the start of its witness, and the passing checks whose witness
digest differs from ``bench/golden/verify-d10.json``.  The perturbations
change what the checks read; a row whose two sets were both empty would be a
fault that nothing notices.
"""

import subprocess
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import pytest

from genus2chow.bundles import SClassCombo
from genus2chow.groebner import RingSpec
from genus2chow.intlinalg import lattice_basis
from genus2chow.pipeline import Pipeline
from genus2chow.ring import Ring

from helpers import child_env, digest_changes


@dataclass(frozen=True)
class Row:
    id: str
    key: str                             # the cached property it replaces
    perturb: Callable[[Pipeline], object]  # its perturbed value, from a sound pipeline
    fails: dict                          # failing check id -> start of its witness
    digest_only: frozenset = frozenset()  # passing checks with a changed witness


def _entry(data: dict, key: str, change) -> dict:
    """A copy of an intermediate with one entry changed."""
    return {**data, key: change(data[key])}


def _item(seq, i: int, change) -> list:
    """A copy of a sequence with one item changed."""
    return [change(x) if j == i else x for j, x in enumerate(seq)]


def _without(key: str):
    """A change that drops one entry of a dict."""
    return lambda data: {k: v for k, v in data.items() if k != key}


def _twice(x):
    return 2 * x


def _relations(spec: RingSpec, change) -> RingSpec:
    """The presentation whose generator list is ``change`` of the original's."""
    return RingSpec(spec.ring, change(spec.relations.generators))


def _scaled(combo):
    return SClassCombo(combo.r, [2 * c for c in combo.coeffs])


def _with_kernel_vector(text: str):
    """The twist-kernel lattices, with the class ``text`` added in its degree."""

    def perturb(p: Pipeline) -> list:
        cls = p.gm_data["spec"].parse(text)
        d = cls.weighted_degree()
        ncols = len(cls.ring.monomials_of_degree(d))

        def grow(basis):
            return lattice_basis(basis + [cls.row()], ncols)

        return _item(p.twist_kernels, d, grow)

    return perturb


ROWS = (
    Row("bg-doubled-torsion", "bg",
        lambda p: _relations(p.bg, lambda g: _item(g, 0, _twice)),
        {"thm:bg": "derived presentation differs from the stated one"}),
    Row("alpha-ambient-doubled-torsion", "alpha_ambient",
        lambda p: _relations(p.alpha_ambient, lambda g: _item(g, 0, _twice)),
        {"bielliptic-euler": "pair euler class is ",
         "relzero": "zero-section relation mismatch: ",
         "reltrip": "triple-root relation mismatch: ",
         "bielliptic-ring": "substituted relations do not generate the stated seven relations"}),
    # The same ring with its degree-1 and degree-2 classes swapped: every
    # statement holds, but witnesses render their terms in another order.
    Row("groth-ring-lambda-order", "groth_ring",
        lambda p: Ring(("t", 1), ("lambda2", 2), ("lambda1", 1)),
        {},
        frozenset({"s6-table", "sij-expansions", "det-7x7", "cub-compat", "groth-factor",
                   "thm:45"})),
    # With t declared last the twist class is led by lambda1, so normal forms
    # of the twist quotient may keep t; the other checks hold, and
    # oracle-agreement takes its Smith forms in this order too.
    Row("groth-ring-hyperplane-last", "groth_ring",
        lambda p: Ring(("lambda1", 1), ("lambda2", 2), ("t", 1)),
        {"thm:45": "the twist class is not led by the hyperplane class"},
        frozenset({"groth-factor", "s6-table"})),
    # The boundary ring is built from the substituted relations.
    Row("bg-derivation-substituted", "bg_derivation",
        lambda p: replace(p.bg_derivation, substituted_relations=tuple(
            _item(p.bg_derivation.substituted_relations, 1,
                  lambda r: r + r.ring.parse("beta2")))),
        {"thm:bg": "derived presentation differs from the stated one",
         "adelta1": "derived boundary ideal differs from the stated presentation",
         "degree3-kernel": "kernel enumeration gives ",
         "thm:main": "the six derived relations do not generate the stated ideal"}),
    Row("bg-derivation-excision", "bg_derivation",
        lambda p: replace(p.bg_derivation, excision_relations=tuple(
            _item(p.bg_derivation.excision_relations, 1, _twice))),
        {"thm:bg": "excision relations came out as "}),
    Row("s6-table", "s6",
        lambda p: _entry(p.s6, "table", lambda t: tuple(_item(t, 2, _twice))),
        {"s6-table": "s6^2 = "}),
    Row("s6-ver0", "s6", lambda p: _entry(p.s6, "ver0", _scaled),
        {"cub-compat": "the two composite expansions of the cubed conic class disagree"}),
    Row("s6-ver1", "s6", lambda p: _entry(p.s6, "ver1", _scaled),
        {"cub-compat": "the two composite expansions of the cubed conic class disagree"}),
    Row("s6-s1j", "s6", lambda p: _entry(p.s6, "s1j", lambda c: _item(c, 1, _scaled)),
        {"cub-compat": "the two composite expansions of the cubed conic class disagree"}),
    Row("s6-s0j", "s6", lambda p: _entry(p.s6, "s0j", lambda c: _item(c, 1, _scaled)),
        {"cub-compat": "the two composite expansions of the cubed conic class disagree"}),
    Row("s6-combos", "s6",
        lambda p: _entry(p.s6, "combos", lambda c: _entry(c, "s11", _scaled)),
        {"sij-expansions": "s11 expands as ", "det-7x7": "determinant is "}),
    # sij-expansions compares every composite class it derives.
    Row("s6-combos-missing", "s6", lambda p: _entry(p.s6, "combos", _without("s11")),
        {"sij-expansions": "composite expansions not both derived and stated: ['s11']",
         "det-7x7": "ValueError: matrix must be square"}),
    Row("s6-polys", "s6",
        lambda p: _entry(p.s6, "polys", lambda c: _entry(c, "s10", _twice)),
        {"sij-rewrites": "s10 = ",
         "groth-membership": "the degree-7 relation is not in the two-generator ideal",
         "thm:45": "twist quotient does not match the stated two-relation presentation"}),
    Row("s6-evenness", "s6", lambda p: _entry(p.s6, "s02_evenness", lambda e: False),
        {"sij-expansions": "halving failed: odd coefficient in the squared term"}),
    Row("grothendieck-relation", "grothendieck_relation",
        lambda p: _twice(p.grothendieck_relation),
        {"groth-factor": "root expansion gives "}),
    Row("delta1-euler46", "delta1_data", lambda p: _entry(p.delta1_data, "euler46", _twice),
        {"adelta1": "euler class of the doubled (4,6) weights is "}),
    Row("delta1-z0", "delta1_data", lambda p: _entry(p.delta1_data, "z0", _twice),
        {"adelta1": "vanishing-summand class is "}),
    Row("delta1-push1", "delta1_data", lambda p: _entry(p.delta1_data, "push1", _twice),
        {"adelta1": "first excision pushforward is "}),
    Row("delta1-push2", "delta1_data", lambda p: _entry(p.delta1_data, "push2", _twice),
        {"adelta1": "second excision pushforward is "}),
    # The boundary ring without its excision pushforwards; thm:main reads the
    # boundary ring's generators, not this derivation.
    Row("delta1-derived", "delta1_data",
        lambda p: _entry(p.delta1_data, "derived", lambda s: _relations(s, lambda g: g[:3])),
        {"adelta1": "derived boundary ideal differs from the stated presentation"},
        frozenset({"thm:main"})),
    Row("delta1-stated", "delta1_data",
        lambda p: _entry(p.delta1_data, "stated", lambda s: _relations(s, lambda g: g[:-1])),
        {"adelta1": "derived boundary ideal differs from the stated presentation"}),
    Row("delta1-ring", "delta1_ring",
        lambda p: _relations(p.delta1_ring, lambda g: g[:1] + g[2:]),
        {"degree3-kernel": "kernel enumeration gives ",
         "thm:main": "the six derived relations do not generate the stated ideal"}),
    Row("gm-spec", "gm_data",
        lambda p: _entry(p.gm_data, "spec", lambda s: _relations(s, lambda g: g[:2])),
        {"thm:45": "degree-3 class is not in the kernel"}),
    # t^10 is no combination of the two stated kernel classes modulo the
    # relations, and below degree 3 the kernel is the relation lattice.
    Row("gm-kernel-lift", "twist_kernels", _with_kernel_vector("t^10"),
        {"thm:45": "kernel piece in degree 10 is not generated by the two classes"}),
    Row("gm-kernel-below-degree-three", "twist_kernels", _with_kernel_vector("t^2"),
        {"thm:45": "kernel piece in degree 2 should vanish"}),
    Row("gm-quotient-gens", "gm_data",
        lambda p: _entry(p.gm_data, "quotient_gens", lambda g: tuple(_item(g, 0, _twice))),
        {"thm:45": "twist quotient does not match the stated two-relation presentation"}),
    Row("gm-open-stated", "gm_data",
        lambda p: _entry(p.gm_data, "open_stated", lambda s: _relations(s, lambda g: g[:1])),
        {"thm:45": "twist quotient does not match the stated two-relation presentation"}),
    Row("grr-kappa-class", "grr_data", lambda p: _entry(p.grr_data, "kappa_class", _twice),
        {"kappa": "series quotient gives "}),
    Row("grr-rewritten", "grr_data", lambda p: _entry(p.grr_data, "rewritten", _twice),
        {"delta0": "quadric rewriting gives "}),
    Row("grr-leftover", "grr_data",
        lambda p: _entry(p.grr_data, "leftover", lambda left: left + [(0, 2, 0)]),
        {"delta0": "unexpected monomials survived the pushforward"}),
    # Only the witness quotes the assembled pushforward.
    Row("grr-pushed", "grr_data", lambda p: _entry(p.grr_data, "pushed", _twice),
        {}, frozenset({"delta0"})),
    Row("grr-delta0-solution", "grr_data",
        lambda p: _entry(p.grr_data, "delta0_solution", _twice),
        {"delta0": "linear assembly gives "}),
    # The total ring takes its self-node relation from the GRR assembly.
    Row("grr-rel3", "grr_data", lambda p: _entry(p.grr_data, "rel3", _twice),
        {"delta0": "doubled relation gives ",
         "thm:main": "the six derived relations do not generate the stated ideal"}),
    Row("main-data", "main_data",
        lambda p: _relations(p.main_data, lambda g: g[:2] + g[3:]),
        {"thm:main": "the six derived relations do not generate the stated ideal"}),
    Row("m2bar-ring", "m2bar_ring", lambda p: _relations(p.m2bar_ring, lambda g: g[:3]),
        {"thm:main": "the six derived relations do not generate the stated ideal"}),
    # The Euler classes are zero-section relations, kept once.
    Row("bielliptic-euler-v31", "bielliptic_data",
        lambda p: _entry(p.bielliptic_data, "relzero", lambda r: _entry(r, "euler_v31", _twice)),
        {"bielliptic-euler": "cubic euler class is ",
         "relzero": "zero-section relation mismatch: "}),
    Row("bielliptic-euler-pairs", "bielliptic_data",
        lambda p: _entry(p.bielliptic_data, "relzero", lambda r: _entry(r, "euler_pairs", _twice)),
        {"bielliptic-euler": "pair euler class is ",
         "relzero": "zero-section relation mismatch: "}),
    Row("bielliptic-z0", "bielliptic_data",
        lambda p: _entry(p.bielliptic_data, "z0", _twice),
        {"relzero": "vanishing-form class evaluates to "}),
    Row("bielliptic-relzero", "bielliptic_data",
        lambda p: _entry(p.bielliptic_data, "relzero", lambda r: _entry(r, "relz2", _twice)),
        {"relzero": "zero-section relation mismatch: "}),
    # A derived relation with no stated text would go unchecked.
    Row("bielliptic-relzero-missing", "bielliptic_data",
        lambda p: _entry(p.bielliptic_data, "relzero", _without("relz3")),
        {"relzero": "zero-section relations not both derived and stated: ['relz3']"}),
    Row("bielliptic-reltrip", "bielliptic_data",
        lambda p: _entry(p.bielliptic_data, "reltrip", lambda r: _entry(r, "rel_t3", _twice)),
        {"reltrip": "triple-root relation mismatch: "}),
    # The relation from the common-factor (diagonal, multiplication, Segre) push.
    Row("bielliptic-reltrip-common-factor", "bielliptic_data",
        lambda p: _entry(p.bielliptic_data, "reltrip", lambda r: _entry(r, "rel_t5", _twice)),
        {"reltrip": "triple-root relation mismatch: "}),
    Row("bielliptic-taut", "bielliptic_data",
        lambda p: _entry(p.bielliptic_data, "taut", lambda t: tuple(_item(t, 0, _twice))),
        {"bielliptic-ring":
         "the inverse change of variables does not invert the tautological classes"}),
    Row("bielliptic-phi-alpha2", "bielliptic_data",
        lambda p: _entry(p.bielliptic_data, "phi", lambda f: _entry(f, "alpha2", _twice)),
        {"bielliptic-ring":
         "the eliminated quadratic class does not match its defining combination"}),
    Row("bielliptic-phi-beta2", "bielliptic_data",
        lambda p: _entry(p.bielliptic_data, "phi", lambda f: _entry(f, "beta2", _twice)),
        {"bielliptic-ring":
         "the inverse change of variables does not invert the tautological classes"}),
    Row("bielliptic-derived", "bielliptic_data",
        lambda p: _entry(p.bielliptic_data, "derived", lambda s: _relations(s, lambda g: g[1:])),
        {"bielliptic-ring": "substituted relations do not generate the stated seven relations"}),
    Row("bielliptic-stated", "bielliptic_data",
        lambda p: _entry(p.bielliptic_data, "stated", lambda s: _relations(s, lambda g: g[:-1])),
        {"bielliptic-ring": "substituted relations do not generate the stated seven relations"}),
)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_fault_is_noticed(pipeline, row):
    fresh = Pipeline()
    fresh.__dict__[row.key] = row.perturb(pipeline)
    report = fresh.run()
    failing = {c.id: c.witness for c in report.checks if c.status == "fail"}
    assert set(failing) == set(row.fails)
    for check_id, start in row.fails.items():
        assert failing[check_id].startswith(start), failing[check_id]
    assert digest_changes(report) == row.digest_only


def test_every_cached_intermediate_has_a_row(pipeline):
    cached = {name for name, value in vars(Pipeline).items() if isinstance(value, cached_property)}
    assert {row.key for row in ROWS} == cached
    # So does every entry of a dict-valued intermediate, except its rings.
    entries = {
        (name, key)
        for name in cached if isinstance(getattr(pipeline, name), dict)
        for key, value in getattr(pipeline, name).items() if not isinstance(value, Ring)
    }
    perturbed = set()
    for row in ROWS:
        sound = getattr(pipeline, row.key)
        if isinstance(sound, dict):
            changed = row.perturb(pipeline)
            perturbed |= {(row.key, key) for key in sound if changed[key] is not sound[key]}
    assert entries - perturbed == set()


# Run in a child so that a Smith form whose entries grow without bound fails
# the suite at the timeout instead of hanging it.
_HYPERPLANE_LAST_ORACLE = """
from genus2chow import intlinalg
from genus2chow.pipeline import Pipeline
from genus2chow.ring import Ring

bits = [0]
smith = intlinalg.smith_normal_form

def measured(A, ncols=None):
    snf = smith(A, ncols)
    bits.append(max((abs(x).bit_length() for M in (snf.U, snf.V, snf.Uinv, snf.Vinv)
                     for row in M for x in row), default=0))
    return snf

intlinalg.smith_normal_form = measured
p = Pipeline()
p.__dict__["groth_ring"] = Ring(("lambda1", 1), ("lambda2", 2), ("t", 1))
(check,) = p.run(ids=["oracle-agreement"]).checks
print(check.status, max(bits))
"""


def test_smith_forms_stay_bounded_with_the_hyperplane_class_last():
    proc = subprocess.run(
        [sys.executable, "-c", _HYPERPLANE_LAST_ORACLE],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    status, bits = proc.stdout.split()
    assert status == "pass"
    assert int(bits) < 1000
