"""Fault injection into every stated text of the pipeline.

A stated text is a module-level constant of ``genus2chow.pipeline`` that holds
polynomial texts only: one text, or a tuple or dict of them (a dict's values
may be dicts of texts).  A mutation id is the constant's name and the path to a
text with ``x2`` or ``x3`` (the text times 2 or 3), as in ``_RELTRIP.rel_t5.x3``,
or a dropped tuple item ``<index>.drop`` or dict entry ``drop.<key>`` (so that
``_S6_TABLE.0.*`` leaves out the drop).  Not swept are the ``_*_VARS`` rings and
``_ORACLE_DEGREE``: they declare where the checks work, not a result of the paper.

The readers of a constant are observed: with every text of it unparsable, all
21 checks run in a fresh ``Pipeline()``, and those whose status or witness
differs from a sound run read it.  A mutation runs only its readers, in a fresh
``Pipeline()``.  Each row matches mutation ids by ``fnmatch`` patterns and
names the checks that fail, each with the start of its witness, and the
passing checks whose digest differs from ``bench/golden/verify-d10.json``.  A
mutation that no check fails must be harmless, and its row proves that.
"""

from dataclasses import dataclass
from fnmatch import fnmatchcase
from functools import partial
from typing import Callable

import pytest

import genus2chow.pipeline as pl
from genus2chow.groebner import RingSpec, ideal_equal
from genus2chow.pipeline import Pipeline

from helpers import digest_changes


def _is_stated(value) -> bool:
    if isinstance(value, str):
        return True
    if isinstance(value, (tuple, dict)):
        items = list(value.values()) if isinstance(value, dict) else value
        return bool(items) and all(map(_is_stated, items))
    return False


STATED = {
    name: value for name, value in vars(pl).items()
    if name.startswith("_") and name[1:].isupper() and _is_stated(value)
}


def _mutations(value):
    """(path, mutated value) for each mutation of a stated value."""
    if isinstance(value, str):
        for k in (2, 3):
            yield f"x{k}", f"{k}*({value})"
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            for path, new in _mutations(item):
                yield f"{i}.{path}", value[:i] + (new,) + value[i + 1:]
            yield f"{i}.drop", value[:i] + value[i + 1:]
    else:
        for key, item in value.items():
            for path, new in _mutations(item):
                yield f"{key}.{path}", {**value, key: new}
            yield f"drop.{key}", {k: v for k, v in value.items() if k != key}


MUTATIONS = {
    f"{name}.{path}": (name, new)
    for name, value in STATED.items() for path, new in _mutations(value)
}


def _unparsable(value):
    """The stated value with every text replaced by one no ring parses."""
    if isinstance(value, str):
        return "@"
    if isinstance(value, tuple):
        return tuple(map(_unparsable, value))
    return {key: _unparsable(item) for key, item in value.items()}


def _run(mid: str, ids=None) -> tuple[dict, frozenset]:
    """Failing check id -> witness, and the changed digests, of one mutation."""
    name, value = MUTATIONS[mid]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pl, name, value)
        report = Pipeline().run(ids=ids)
    return {c.id: c.witness for c in report.checks if c.status == "fail"}, digest_changes(report)


@pytest.fixture(scope="module")
def readers() -> dict[str, list[str]]:
    """The checks that read each stated text, observed as the docstring says."""

    def outcomes() -> dict:
        return {c.id: (c.status, c.witness) for c in Pipeline().run().checks}

    sound = outcomes()
    found = {}
    for name, value in STATED.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pl, name, _unparsable(value))
            broken = outcomes()
        found[name] = [cid for cid in sound if broken[cid] != sound[cid]]
    return found


def _same_ideal(variables, *extra: str):
    """Proof: the mutated relations, with ``extra`` added, present the same
    ideal as the stated ones."""

    def proof(p: Pipeline, mutated, stated) -> bool:
        return ideal_equal(
            *(RingSpec.build(variables, (*extra, *texts)) for texts in (mutated, stated))
        )

    return proof


def _implied(p: Pipeline, mutated: str, stated: str) -> bool:
    """Proof: the class, mutated or stated, lies in the stated boundary ideal,
    so the check still states only what holds."""
    spec = p.delta1_data["stated"]
    return all(spec.contains(spec.parse(t)) for t in (mutated, stated))


def _same_kernel(p: Pipeline, mutated, stated) -> bool:
    """Proof: the mutated kernel classes generate, with the relations, the
    ideal the stated ones generate."""
    spec = p.gm_data["spec"]
    return ideal_equal(
        *(spec.with_relations(*map(spec.parse, k.values())) for k in (mutated, stated))
    )


@dataclass(frozen=True)
class Row:
    patterns: str     # space-separated fnmatch patterns over mutation ids
    fails: dict       # failing check id -> start of its witness, or a function
                      # of the dropped key that gives it
    harmless: Callable | None = None  # (pipeline, mutated, stated) -> bool, when none fail
    digest_only: frozenset = frozenset()  # passing checks with a changed witness


_BG_SUBSTITUTED = "derived presentation differs from the stated one: "
_BOUNDARY_IDEAL = "derived boundary ideal differs from the stated presentation"
_SEVEN = "substituted relations do not generate the stated seven relations"
_MOD2 = "mod-2 reduction does not give the stated two-relation presentation"
_SIX = "the six derived relations do not generate the stated ideal"
_PUSHFORWARDS = "boundary pushforwards differ from the stated classes: "
_ZERO_SECTION = "zero-section relation mismatch: "
_INVERSE = "the inverse change of variables does not invert the tautological"
# The checks that read the test family's derived data.
_FAMILY = ("bielliptic-euler", "relzero", "reltrip", "bielliptic-ring", "bielliptic-mod2",
           "oracle-agreement")
# The witnesses of a check that reads a dropped keyed text, and of a table
# whose derived and stated entries differ in one key.
_missing = "KeyError: {!r}".format
_unmatched = "{} not both derived and stated: [{!r}]".format


ROWS = (
    Row("_BG_BUNDLE_FACTORS.*",
        {"thm:bg": "projective-bundle relation does not factor as stated:"}),
    Row("_BG_EXCISION.*", {"thm:bg": "excision relations came out as "}),
    # The classifying ring's relations feed the boundary ring and the whole
    # test family.
    Row("_BG_RELATIONS.0.x2",
        {"thm:bg": _BG_SUBSTITUTED, "bielliptic-euler": "pair euler class is ",
         "relzero": _ZERO_SECTION, "reltrip": "triple-root relation mismatch: ",
         "bielliptic-ring": _SEVEN}),
    Row("_BG_RELATIONS.0.x3",
        {"thm:bg": _BG_SUBSTITUTED, "bielliptic-euler": "pair euler class is ",
         "relzero": _ZERO_SECTION, "reltrip": "triple-root relation mismatch: ",
         "bielliptic-ring": "boundary class pullback is "}),
    # thm:main lists the boundary generators it pushes forward.
    Row("_BG_RELATIONS.0.drop",
        {"thm:bg": _BG_SUBSTITUTED, "adelta1": "first excision pushforward is ",
         "bielliptic-euler": "pair euler class is ", "relzero": _ZERO_SECTION,
         "reltrip": "triple-root relation mismatch: ",
         "bielliptic-ring": "boundary class pullback is "},
        digest_only=frozenset({"thm:main"})),
    Row("_BG_RELATIONS.1.x2 _BG_RELATIONS.1.drop",
        {"thm:bg": _BG_SUBSTITUTED, "bielliptic-euler": "pair euler class is ",
         "relzero": _ZERO_SECTION, "bielliptic-ring": _SEVEN}),
    Row("_BG_RELATIONS.1.x3", {"thm:bg": _BG_SUBSTITUTED}),
    *(Row(f"_S6_TABLE.{j}.*", {"s6-table": f"s6^{j} = "}) for j in range(5)),
    # A check compares its whole table, so a dropped entry fails it.
    Row("_S6_TABLE.drop.?", {"s6-table": partial(_unmatched, "s6 table entries")}),
    *(Row(f"_SIJ_EXPANSIONS.{name}.*", {"sij-expansions": f"{name} expands as "})
      for name in ("s10", "s11", "s12", "s13", "s00", "s01", "s02'")),
    Row("_SIJ_EXPANSIONS.drop.*",
        {"sij-expansions": partial(_unmatched, "composite expansions")}),
    Row("_DETERMINANT.*", {"det-7x7": "determinant is "}),
    Row("_GROTHENDIECK_FACTORS.*", {"groth-factor": "root expansion gives "}),
    *(Row(f"_SIJ_POLYNOMIALS.{name}.*", {"sij-rewrites": f"{name} = "})
      for name in ("s10", "s00", "s02'")),
    Row("_SIJ_POLYNOMIALS.drop.*", {"sij-rewrites": partial(_unmatched, "quotient generators")}),
    *(Row(f"_SIJ_REWRITES.{name}.*", {"sij-rewrites": f"{name} rewriting fails:"})
      for name in ("s10", "s00", "s02'")),
    Row("_SIJ_REWRITES.drop.*",
        {"sij-rewrites": partial(_unmatched, "quotient generator rewritings")}),
    Row("_BOUNDARY_RELATIONS.[023].*", {"adelta1": _BOUNDARY_IDEAL}),
    Row("_BOUNDARY_RELATIONS.1.x2 _BOUNDARY_RELATIONS.1.drop", {"adelta1": _BOUNDARY_IDEAL}),
    # 3*(gamma^2 + lambda1*gamma) differs from the stated relation by a
    # multiple of 2*gamma.
    Row("_BOUNDARY_RELATIONS.1.x3", {}, _same_ideal(pl._BOUNDARY_VARS),
        frozenset({"adelta1"})),
    # A multiple of an implied class is implied: the check then states less,
    # and what it states still holds.
    Row("_BOUNDARY_IMPLIED.*", {}, _implied,
        frozenset({"adelta1"})),
    Row("_BOUNDARY_EULER.*", {"adelta1": "euler class of the doubled (4,6) weights is "}),
    Row("_VANISHING_SUMMAND.*", {"adelta1": "vanishing-summand class is "}),
    Row("_BOUNDARY_EXCISION.push1.x?", {"adelta1": "first excision pushforward is "}),
    Row("_BOUNDARY_EXCISION.push2.x?", {"adelta1": "second excision pushforward is "}),
    Row("_OPEN_RELATIONS.*",
        {"thm:45": "twist quotient does not match the stated two-relation presentation"}),
    Row("_TWIST_KERNEL.k?.x2", {"thm:45": "kernel generator vanishes in the quotient"}),
    # The degree-3 kernel class is 2-torsion, so 3 times it generates the same.
    Row("_TWIST_KERNEL.k3.x3", {}, _same_kernel, frozenset({"thm:45"})),
    Row("_TWIST_KERNEL.k4.x3", {"thm:45": "degree-4 kernel witness identity fails"}),
    Row("_TWIST_KERNEL_COFACTORS.c??.x?", {"thm:45": "degree-4 kernel witness identity fails"}),
    # A dropped keyed text fails its one reader with a witness naming the key.
    *(Row(f"{name}.drop.{key}", {check: _missing(key)})
      for name, check in (("_BOUNDARY_EXCISION", "adelta1"), ("_TWIST_KERNEL", "thm:45"),
                          ("_TWIST_KERNEL_COFACTORS", "thm:45"), ("_IM5_IDENTITY", "im5"))
      for key in getattr(pl, name)),
    Row("_KAPPA_QUADRIC.*", {"kappa": "series quotient gives "}),
    Row("_KAPPA_REWRITE.*", {"delta0": "quadric rewriting gives "}),
    Row("_DELTA0.*", {"delta0": "linear assembly gives "}),
    Row("_DEGREE3_KERNEL.?.x2 _DEGREE3_KERNEL.?.drop",
        {"degree3-kernel": "kernel enumeration gives "}),
    Row("_DEGREE3_KERNEL.?.x3", {"degree3-kernel": _PUSHFORWARDS}),
    *(Row(f"_BOUNDARY_CLASSES.{i}.x2",
          {"degree3-kernel": _PUSHFORWARDS,
           "bielliptic-mod2": f"2*({text}) vanishes mod 2 in the test-family ring"})
      for i, text in enumerate(pl._BOUNDARY_CLASSES)),
    Row("_BOUNDARY_CLASSES.?.x3 _BOUNDARY_CLASSES.?.drop", {"degree3-kernel": _PUSHFORWARDS},
        digest_only=frozenset({"bielliptic-mod2"})),
    Row("_IM5_IDENTITY.*.x?", {"im5": "rewriting into the doubled relation fails"}),
    # delta0 quotes the first text and compares the GRR relation with the
    # second; dropping the first moves the third into its place.
    Row("_MAIN_RELATIONS.0.x?", {"thm:main": _SIX}, digest_only=frozenset({"delta0"})),
    Row("_MAIN_RELATIONS.[01].drop", {"delta0": "doubled relation gives ", "thm:main": _SIX}),
    Row("_MAIN_RELATIONS.1.x?", {"delta0": "doubled relation gives ", "thm:main": _SIX}),
    Row("_MAIN_RELATIONS.2.x2 _MAIN_RELATIONS.2.drop", {"thm:main": _SIX}),
    # 3*(delta1^3 + delta1^2*lambda1) differs from the stated relation by
    # delta1 times the fourth.
    Row("_MAIN_RELATIONS.2.x3", {}, _same_ideal(pl._MAIN_VARS), frozenset({"thm:main"})),
    Row("_MAIN_RELATIONS.3.*", {"thm:main": _SIX}),
    Row("_RELZERO.euler_v31.x?",
        {"bielliptic-euler": "cubic euler class is ", "relzero": _ZERO_SECTION}),
    Row("_RELZERO.euler_pairs.x?",
        {"bielliptic-euler": "pair euler class is ", "relzero": _ZERO_SECTION}),
    Row("_RELZERO.relz?.x?", {"relzero": _ZERO_SECTION}),
    *(Row(f"_RELZERO.drop.{key}",
          {"bielliptic-euler": _missing(key),
           "relzero": _unmatched("zero-section relations", key)})
      for key in ("euler_v31", "euler_pairs")),
    *(Row(f"_RELZERO.drop.{key}", {"relzero": _unmatched("zero-section relations", key)})
      for key in ("relz2", "relz3")),
    Row("_RELTRIP.*.x?", {"reltrip": "triple-root relation mismatch: derived "}),
    *(Row(f"_RELTRIP.drop.{key}", {"reltrip": _unmatched("triple-root relations", key)})
      for key in pl._RELTRIP),
    Row("_VANISHING_FORM.*", {"relzero": "vanishing-form class evaluates to "}),
    Row("_TAUTOLOGICAL.lambda?.x?", {"bielliptic-ring": _INVERSE}),
    Row("_TAUTOLOGICAL.delta1.x?", {"bielliptic-ring": "boundary class pullback is "}),
    # The test family's derivation reads the pullbacks of lambda1 and lambda2.
    *(Row(f"_TAUTOLOGICAL.drop.{key}", dict.fromkeys(_FAMILY, _missing(key)))
      for key in ("lambda1", "lambda2")),
    Row("_TAUTOLOGICAL.drop.delta1", {"bielliptic-ring": _missing("delta1")}),
    Row("_CHANGE_OF_VARIABLES.*.x?", {"bielliptic-ring": _INVERSE}),
    *(Row(f"_CHANGE_OF_VARIABLES.drop.{key}", dict.fromkeys(_FAMILY, _missing(key)))
      for key in ("alpha1", "beta1")),
    Row("_TEST_FAMILY_RELATIONS.[03-6].*", {"bielliptic-ring": _SEVEN}),
    Row("_TEST_FAMILY_RELATIONS.[12].x2 _TEST_FAMILY_RELATIONS.[12].drop",
        {"bielliptic-ring": _SEVEN, "bielliptic-mod2": _MOD2}),
    Row("_TEST_FAMILY_RELATIONS.2.x3", {"bielliptic-ring": _SEVEN}),
    # As in the boundary ring: 2*gamma is a relation.
    Row("_TEST_FAMILY_RELATIONS.1.x3", {}, _same_ideal(pl._TEST_FAMILY_VARS)),
    Row("_MOD2_RELATIONS.?.x2 _MOD2_RELATIONS.?.drop", {"bielliptic-mod2": _MOD2}),
    # 3 is 1 modulo 2.
    Row("_MOD2_RELATIONS.?.x3", {}, _same_ideal(pl._TEST_FAMILY_VARS, "2"),
        frozenset({"bielliptic-mod2"})),
)


def _matches(row: Row, mid: str) -> bool:
    return any(fnmatchcase(mid, pattern) for pattern in row.patterns.split())


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.patterns)
def test_stated_text_mutation(pipeline, readers, row):
    for mid in filter(lambda mid: _matches(row, mid), MUTATIONS):
        name, value = MUTATIONS[mid]
        failing, changed = _run(mid, readers[name])
        assert set(failing) == set(row.fails), mid
        dropped = STATED[name].keys() - value.keys() if isinstance(value, dict) else ()
        for check_id, start in row.fails.items():
            start = start(*dropped) if callable(start) else start
            assert failing[check_id].startswith(start), (mid, failing[check_id])
        assert changed == row.digest_only, mid
        if not row.fails:
            assert row.harmless(pipeline, value, STATED[name]), mid


def test_every_stated_text_has_rows(readers):
    # Every mutation of every stated text has exactly one row, and every row
    # matches a mutation; a row whose mutation no check fails carries a proof
    # that the mutation is harmless.  Every stated text has a reader.
    assert len(STATED) >= 30
    for mid in MUTATIONS:
        rows = [row.patterns for row in ROWS if _matches(row, mid)]
        assert len(rows) == 1, (mid, rows)
    for row in ROWS:
        assert any(_matches(row, mid) for mid in MUTATIONS), row.patterns
        assert (row.harmless is None) == bool(row.fails), row.patterns
    for name in STATED:
        assert readers[name], name


@pytest.mark.parametrize(
    "mid", ["_BG_RELATIONS.1.x2", "_MAIN_RELATIONS.1.x2", "_TAUTOLOGICAL.delta1.x3"]
)
def test_a_restricted_run_fails_as_a_full_run(readers, mid):
    # The observed readers fail, and change digests, as all 21 checks do.
    assert _run(mid, readers[MUTATIONS[mid][0]]) == _run(mid)
