"""Fault injection into every stated text of the pipeline.

A stated text is a module-level constant of ``genus2chow.pipeline`` that holds
polynomial texts only: one text, or a tuple or dict of them (a dict's values
may be dicts of texts).  Each mutation changes one text: it multiplies a
polynomial by 2 or by 3, or drops one item of a tuple.  Its id is the
constant's name, the path to the text, and ``x2``, ``x3`` or ``drop``, as in
``_RELTRIP.4.x3``.

A mutation runs in a fresh ``Pipeline()`` only the checks that read the
constant, directly or through the cached intermediates that read it, plus
their dependencies; every other intermediate is taken from a sound pipeline.
The reads come from the names in each function's code, so a check that reads
no mutated name cannot change.  Each row matches mutation ids by ``fnmatch``
patterns and names the checks that fail, each with the start of its witness.
A mutation that no check notices must be harmless, and its row proves that
by ideal equality or by membership.
"""

import types
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Callable

import pytest

import genus2chow.pipeline as pl
from genus2chow.groebner import RingSpec, ideal_equal
from genus2chow.pipeline import Pipeline


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


MUTATIONS = {
    f"{name}.{path}": (name, new)
    for name, value in STATED.items() for path, new in _mutations(value)
}


def _names(code: types.CodeType) -> set[str]:
    """Every global and attribute name that code, or code nested in it, reads."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


# The names each function of the pipeline module and each member of Pipeline
# (methods, properties, cached intermediates) reads.
_READS = {
    name: _names(fn.__code__)
    for name, value in {**vars(pl), **vars(Pipeline)}.items()
    for fn in [getattr(value, "func", None) or getattr(value, "fget", None) or value]
    if isinstance(fn, types.FunctionType) and fn.__module__ == pl.__name__
}


def _readers(constant: str) -> set[str]:
    """The pipeline code that reads ``constant``, directly or through other
    such code."""
    tainted = {constant}
    while more := {name for name, reads in _READS.items() if reads & tainted} - tainted:
        tainted |= more
    return tainted - {constant}


def _checks_fed(readers: set[str]) -> list[str]:
    """The ids of the checks among ``readers``, plus their dependencies."""
    ids = {c.id for c in Pipeline.CHECKS if c.run.__name__ in readers}
    stack = list(ids)
    while stack:
        for dep in Pipeline.check_def(stack.pop()).deps:
            if dep not in ids:
                ids.add(dep)
                stack.append(dep)
    return [c.id for c in Pipeline.CHECKS if c.id in ids]


def _texts(value) -> tuple:
    return (value,) if isinstance(value, str) else value


def _same_ideal(variables, *extra: str):
    """Proof: the mutated relations, with ``extra`` added, present the same
    ideal as the stated ones."""

    def proof(p: Pipeline, mutated, stated) -> bool:
        return ideal_equal(
            *(RingSpec.build(variables, (*extra, *texts)) for texts in (mutated, stated))
        )

    return proof


def _members(spec_of: Callable[[Pipeline], RingSpec]):
    """Proof: every class, mutated or stated, lies in the ideal the check
    tests it against, so the check still states only what holds."""

    def proof(p: Pipeline, mutated, stated) -> bool:
        spec = spec_of(p)
        return all(spec.contains(spec.parse(t)) for t in (*_texts(mutated), *_texts(stated)))

    return proof


def _same_kernel(p: Pipeline, mutated, stated) -> bool:
    """Proof: the mutated kernel classes generate, with the relations, the
    ideal the stated ones generate."""
    spec = p.gm_data["spec"]
    return ideal_equal(*(spec.with_relations(*map(spec.parse, k)) for k in (mutated, stated)))


@dataclass(frozen=True)
class Row:
    patterns: str     # space-separated fnmatch patterns over mutation ids
    fails: dict       # failing check id -> start of its witness
    harmless: Callable | None = None  # (pipeline, mutated, stated) -> bool, when none fail


_BG_SUBSTITUTED = "derived presentation differs from the stated one: "
_BOUNDARY_IDEAL = "derived boundary ideal differs from the stated presentation"
_SEVEN = "substituted relations do not generate the stated seven relations"
_MOD2 = "mod-2 reduction does not give the stated two-relation presentation"
_SIX = "the six derived relations do not generate the stated ideal"
_UNPACK = "ValueError: not enough values to unpack (expected 2, got 1)"
_INDEX = "IndexError: tuple index out of range"
_ZIP = "ValueError: zip() argument 2 is shorter than argument 1"
_PUSHFORWARDS = "boundary pushforwards differ from the stated classes: "
_ZERO_SECTION = "zero-section relation mismatch: derived "

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
    Row("_BG_RELATIONS.0.drop",
        {"thm:bg": _BG_SUBSTITUTED, "adelta1": "first excision pushforward is ",
         "bielliptic-euler": "pair euler class is ", "relzero": _ZERO_SECTION,
         "reltrip": "triple-root relation mismatch: ",
         "bielliptic-ring": "boundary class pullback is "}),
    Row("_BG_RELATIONS.1.x2 _BG_RELATIONS.1.drop",
        {"thm:bg": _BG_SUBSTITUTED, "bielliptic-euler": "pair euler class is ",
         "relzero": _ZERO_SECTION, "bielliptic-ring": _SEVEN}),
    Row("_BG_RELATIONS.1.x3", {"thm:bg": _BG_SUBSTITUTED}),
    *(Row(f"_S6_TABLE.{j}.*", {"s6-table": f"s6^{j} = "}) for j in range(5)),
    *(Row(f"_SIJ_EXPANSIONS.{name}.*", {"sij-expansions": f"{name} expands as "})
      for name in ("s10", "s11", "s12", "s13", "s00", "s01", "s02'")),
    Row("_DETERMINANT.*", {"det-7x7": "determinant is "}),
    Row("_GROTHENDIECK_FACTORS.*", {"groth-factor": "root expansion gives "}),
    *(Row(f"_SIJ_POLYNOMIALS.{name}.*", {"sij-rewrites": f"{name} = "})
      for name in ("s10", "s00", "s02'")),
    *(Row(f"_SIJ_REWRITES.{name}.*", {"sij-rewrites": f"{name} rewriting fails:"})
      for name in ("s10", "s00", "s02'")),
    Row("_BOUNDARY_RELATIONS.[023].*", {"adelta1": _BOUNDARY_IDEAL}),
    Row("_BOUNDARY_RELATIONS.1.x2 _BOUNDARY_RELATIONS.1.drop", {"adelta1": _BOUNDARY_IDEAL}),
    # 3*(gamma^2 + lambda1*gamma) differs from the stated relation by a
    # multiple of 2*gamma.
    Row("_BOUNDARY_RELATIONS.1.x3", {}, _same_ideal(pl._BOUNDARY_VARS)),
    # A multiple of an implied class is implied: the check then states less,
    # and what it states still holds.
    Row("_BOUNDARY_IMPLIED.*", {}, _members(lambda p: p.delta1_data["stated"])),
    Row("_BOUNDARY_EULER.*", {"adelta1": "euler class of the doubled (4,6) weights is "}),
    Row("_VANISHING_SUMMAND.*", {"adelta1": "vanishing-summand class is "}),
    Row("_BOUNDARY_EXCISION.0.x?", {"adelta1": "first excision pushforward is "}),
    Row("_BOUNDARY_EXCISION.1.x?", {"adelta1": "second excision pushforward is "}),
    Row("_BOUNDARY_EXCISION.?.drop", {"adelta1": _INDEX}),
    Row("_OPEN_RELATIONS.*",
        {"thm:45": "twist quotient does not match the stated two-relation presentation"}),
    Row("_TWIST_KERNEL.?.x2", {"thm:45": "kernel generator vanishes in the quotient"}),
    # The degree-3 kernel class is 2-torsion, so 3 times it generates the same.
    Row("_TWIST_KERNEL.0.x3", {}, _same_kernel),
    Row("_TWIST_KERNEL.1.x3", {"thm:45": "degree-4 kernel witness identity fails"}),
    Row("_TWIST_KERNEL.?.drop", {"thm:45": _UNPACK}),
    Row("_TWIST_KERNEL_COFACTORS.?.x?", {"thm:45": "degree-4 kernel witness identity fails"}),
    Row("_TWIST_KERNEL_COFACTORS.?.drop", {"thm:45": _UNPACK}),
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
    Row("_BOUNDARY_CLASSES.?.x3 _BOUNDARY_CLASSES.?.drop", {"degree3-kernel": _PUSHFORWARDS}),
    Row("_IM5_IDENTITY.?.x?", {"im5": "rewriting into the doubled relation fails"}),
    Row("_IM5_IDENTITY.?.drop", {"im5": _UNPACK}),
    # delta0 compares the relation the GRR assembly derives with the second
    # text; dropping the first moves the third into its place.
    Row("_MAIN_RELATIONS.0.x?", {"thm:main": _SIX}),
    Row("_MAIN_RELATIONS.[01].drop", {"delta0": "doubled relation gives ", "thm:main": _SIX}),
    Row("_MAIN_RELATIONS.1.x?", {"delta0": "doubled relation gives ", "thm:main": _SIX}),
    Row("_MAIN_RELATIONS.2.x2 _MAIN_RELATIONS.2.drop", {"thm:main": _SIX}),
    # 3*(delta1^3 + delta1^2*lambda1) differs from the stated relation by
    # delta1 times the fourth.
    Row("_MAIN_RELATIONS.2.x3", {}, _same_ideal(pl._MAIN_VARS)),
    Row("_MAIN_RELATIONS.3.*", {"thm:main": _SIX}),
    # The samples are members of the stated ideal; a multiple of a member is
    # one, and dropping a sample drops a true statement.
    Row("_MAIN_SAMPLES.*", {}, _members(lambda p: p.m2bar_ring)),
    Row("_RELZERO.0.*", {"bielliptic-euler": "cubic euler class is ", "relzero": _ZERO_SECTION}),
    Row("_RELZERO.[12].x?", {"relzero": _ZERO_SECTION}),
    Row("_RELZERO.[12].drop", {"bielliptic-euler": _INDEX, "relzero": _ZERO_SECTION}),
    Row("_RELZERO.3.x?", {"bielliptic-euler": "pair euler class is ", "relzero": _ZERO_SECTION}),
    Row("_RELZERO.3.drop", {"bielliptic-euler": _INDEX, "relzero": _ZIP}),
    Row("_RELTRIP.[0-4].* _RELTRIP.5.x?", {"reltrip": "triple-root relation mismatch: derived "}),
    Row("_RELTRIP.5.drop", {"reltrip": _ZIP}),
    Row("_VANISHING_FORM.*", {"relzero": "vanishing-form class evaluates to "}),
    Row("_TAUTOLOGICAL.[01].x?",
        {"bielliptic-ring": "the inverse change of variables does not invert the tautological"}),
    Row("_TAUTOLOGICAL.2.x?", {"bielliptic-ring": "boundary class pullback is "}),
    Row("_TAUTOLOGICAL.?.drop", {"bielliptic-ring": _INDEX}),
    Row("_CHANGE_OF_VARIABLES.*",
        {"bielliptic-ring": "the inverse change of variables does not invert the tautological"}),
    Row("_TEST_FAMILY_RELATIONS.[03-6].*", {"bielliptic-ring": _SEVEN}),
    Row("_TEST_FAMILY_RELATIONS.[12].x2 _TEST_FAMILY_RELATIONS.[12].drop",
        {"bielliptic-ring": _SEVEN, "bielliptic-mod2": _MOD2}),
    Row("_TEST_FAMILY_RELATIONS.2.x3", {"bielliptic-ring": _SEVEN}),
    # As in the boundary ring: 2*gamma is a relation.
    Row("_TEST_FAMILY_RELATIONS.1.x3", {}, _same_ideal(pl._TEST_FAMILY_VARS)),
    Row("_MOD2_RELATIONS.?.x2 _MOD2_RELATIONS.?.drop", {"bielliptic-mod2": _MOD2}),
    # 3 is 1 modulo 2.
    Row("_MOD2_RELATIONS.?.x3", {}, _same_ideal(pl._TEST_FAMILY_VARS, "2")),
)


def _matches(row: Row, mid: str) -> bool:
    return any(fnmatchcase(mid, pattern) for pattern in row.patterns.split())


@pytest.fixture(scope="module")
def sound(pipeline) -> Pipeline:
    """The shared pipeline with every intermediate computed."""
    assert pipeline.run().overall == "pass"
    return pipeline


def _failing(sound: Pipeline, monkeypatch, mid: str) -> dict:
    """Failing check id -> witness, for one mutation run as the module
    docstring says."""
    name, value = MUTATIONS[mid]
    readers = _readers(name)
    with monkeypatch.context() as patch:
        patch.setattr(pl, name, value)
        fresh = Pipeline()
        fresh.__dict__.update({k: v for k, v in vars(sound).items() if k not in readers})
        report = fresh.run(ids=_checks_fed(readers))
    return {c.id: c.witness for c in report.checks if c.status == "fail"}


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.patterns)
def test_stated_text_mutation(sound, monkeypatch, row):
    for mid in filter(lambda mid: _matches(row, mid), MUTATIONS):
        name, value = MUTATIONS[mid]
        failing = _failing(sound, monkeypatch, mid)
        assert set(failing) == set(row.fails), mid
        for check_id, start in row.fails.items():
            assert failing[check_id].startswith(start), (mid, failing[check_id])
        if not row.fails:
            assert row.harmless(sound, value, STATED[name]), mid


def test_every_stated_text_has_rows():
    # Every mutation of every stated text has exactly one row, and every row
    # matches a mutation; a row whose mutation no check notices carries a
    # proof that the mutation is harmless.
    assert len(STATED) >= 30
    for mid in MUTATIONS:
        rows = [row.patterns for row in ROWS if _matches(row, mid)]
        assert len(rows) == 1, (mid, rows)
    for row in ROWS:
        assert any(_matches(row, mid) for mid in MUTATIONS), row.patterns
        assert (row.harmless is None) == bool(row.fails), row.patterns
    for name in STATED:
        assert _checks_fed(_readers(name)), name


@pytest.mark.parametrize(
    "mid", ["_BG_RELATIONS.1.x2", "_MAIN_RELATIONS.1.x2", "_TAUTOLOGICAL.2.x3"]
)
def test_a_restricted_run_fails_as_a_full_run(sound, monkeypatch, mid):
    # The shortcut of the sweep, against all 21 checks in a fresh pipeline.
    name, value = MUTATIONS[mid]
    monkeypatch.setattr(pl, name, value)
    report = Pipeline().run()
    full = {c.id: c.witness for c in report.checks if c.status == "fail"}
    monkeypatch.undo()
    assert _failing(sound, monkeypatch, mid) == full
