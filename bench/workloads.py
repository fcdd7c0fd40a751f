"""The benchmark's workloads: their inputs, one timed unit of work each, and
the check of that unit's output.

verify-d10   Pipeline(max_degree=10).run(): all 21 checks, as the default
             `verify --all`, where Smith forms in `oracle-agreement` are
             two thirds of the run.
verify-d12   Pipeline(max_degree=12).run(): all 21 checks, as `verify --all
             --max-degree 12`, where the twist kernel is half the run.
membership   seeded ASCII membership queries against the six pipeline ring
             presentations: parse, Groebner normal form, render.  Bases are
             completed in set-up, so this is the Groebner read path.

Verify output is checked against the witness digests in ``golden/``;
membership answers against the Smith-form engine.

``PYTHONPATH=src python3 bench/workloads.py`` rewrites the golden digests
from the current code.  Do that only in a change that means to alter a
witness.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from genus2chow import graded_piece
from genus2chow.pipeline import Pipeline

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

WORKLOADS = ("verify-d10", "verify-d12", "membership")

MEMBERSHIP_DEGREES = range(2, 9)
MEMBERSHIP_PER_CELL = 14    # queries per ring and degree: 6 * 7 * 14 = 588


@dataclass
class Workload:
    """One workload, set up.

    ``run`` is the timed unit; ``check`` returns how many of the unit's
    ``ops`` operations (checks or queries) came out wrong.
    """

    name: str
    ops: int
    run: Callable[[], object]
    check: Callable[[object], int]
    info: dict


# The Pipeline run of the verify workloads, and the cold
# `python -m genus2chow verify` run of every workload: (max degree, check ids
# or None for all).  The cold run of membership runs the three checks that
# answer membership questions on parsed text through Groebner normal forms,
# with no Smith or Hermite form: the nearest the command line comes to the
# membership workload.
PIPELINE_RUNS = {
    "verify-d10": (10, None),
    "verify-d12": (12, None),
    "membership": (10, ("groth-membership", "relzero", "reltrip")),
}


def cold_args(name: str) -> list[str]:
    max_degree, ids = PIPELINE_RUNS[name]
    args = ["verify", "--max-degree", str(max_degree), "--format", "json"]
    if ids is None:
        return args + ["--all"]
    for check_id in ids:
        args += ["--check", check_id]
    return args


def cold_ops(name: str) -> int:
    return len(PIPELINE_RUNS[name][1] or Pipeline.check_ids())


def cold_failures(name: str, report: dict) -> int:
    """Failed checks in the JSON report of a cold run of workload ``name``."""
    max_degree, ids = PIPELINE_RUNS[name]
    return report_failures(
        report["checks"], report["overall"], ids or Pipeline.check_ids(), load_golden(max_degree)
    )


def golden_path(max_degree: int) -> Path:
    return GOLDEN_DIR / f"verify-d{max_degree}.json"


def load_golden(max_degree: int) -> dict:
    return json.loads(golden_path(max_degree).read_text())


def report_failures(report_records: list[dict], overall: str, ids, golden: dict) -> int:
    """Checks among ``ids`` whose status or witness digest differs from the
    golden file; a report that lacks a check counts that check as failed."""
    got = {r["id"]: r for r in report_records}
    failed = 0
    for check_id in ids:
        record = got.get(check_id)
        if (
            record is None
            or record["status"] != "pass"
            or record["witness_digest"] != golden["digests"][check_id]
        ):
            failed += 1
    if not failed and len(ids) == len(golden["digests"]) and overall != golden["overall"]:
        failed = 1
    return failed


def _pipeline_workload(name: str, corruption: str | None) -> Workload:
    max_degree, ids = PIPELINE_RUNS[name]
    golden = load_golden(max_degree)
    checks = ids or Pipeline.check_ids()

    def run():
        return Pipeline(max_degree=max_degree, corruption=corruption).run(ids=ids)

    def check(report) -> int:
        return report_failures(report.records(), report.overall, checks, golden)

    return Workload(name, len(checks), run, check, {})


def membership_specs() -> dict:
    """The six ring presentations of the pipeline, by the names the
    `oracle-agreement` check uses.  None of them depends on max_degree, so
    the smallest bound keeps the twist kernel out of set-up."""
    p = Pipeline(max_degree=5)
    return {
        "classifying": p.bg,
        "boundary": p.delta1_ring,
        "twist-quotient": p.gm_data["spec"],
        "open-stratum": p.gm_data["open_stated"],
        "total": p.m2bar_ring,
        "bielliptic": p.bielliptic_data["stated"],
    }


def format_polynomial(ring, terms: dict) -> str:
    """ASCII text of a polynomial, written independently of `parse`."""
    parts = []
    for exps in sorted(terms, reverse=True):
        factors = [str(abs(terms[exps]))]
        for name, e in zip(ring.names, exps):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        parts.append(("- " if terms[exps] < 0 else "+ ") + "*".join(factors))
    return " ".join(parts).lstrip("+ ")


def make_queries(specs: dict, seed: int, per_cell: int = MEMBERSHIP_PER_CELL) -> list[tuple]:
    """Seeded (ring name, degree, polynomial) queries, in seeded order.

    Every ring gets ``per_cell`` queries in every degree, so the seed changes
    the polynomials but hardly the amount of work.  In each ring and degree
    that has relations of at most that degree, every other query is a sum of
    monomial multiples of relation generators, so both answers occur."""
    rng = random.Random(seed)
    queries = []
    for name in sorted(specs):
        spec = specs[name]
        ring = spec.ring
        for d in MEMBERSHIP_DEGREES:
            monomials = ring.monomials_of_degree(d)
            relations = [g for g in spec.relations.generators if g and g.weighted_degree() <= d]
            made = 0
            while made < per_cell:
                p = ring.zero()
                if relations and made % 2 == 0:
                    for _ in range(rng.randint(1, 2)):
                        g = rng.choice(relations)
                        mult = rng.choice(ring.monomials_of_degree(d - g.weighted_degree()))
                        p = p + rng.choice((-3, -2, -1, 1, 2, 3)) * ring.polynomial({mult: 1}) * g
                else:
                    for _ in range(rng.randint(1, 4)):
                        p = p + ring.polynomial({rng.choice(monomials): rng.randint(-6, 6) or 1})
                if p:
                    queries.append((name, d, p))
                    made += 1
    rng.shuffle(queries)
    return queries


def _membership_workload(seed: int) -> Workload:
    specs = membership_specs()
    for spec in specs.values():
        spec.groebner  # completion belongs to set-up
    queries = make_queries(specs, seed)
    pieces = {}
    expected = []
    for name, d, p in queries:
        if (name, d) not in pieces:
            pieces[name, d] = graded_piece(specs[name], d)
        expected.append(pieces[name, d].is_zero(p))
    batch = [(specs[name], format_polynomial(p.ring, p.term_map())) for name, _d, p in queries]

    def run():
        answers = []
        for spec, text in batch:
            p = spec.parse(text)
            nf = spec.normal_form(p)
            answers.append((p, nf, str(nf)))
        return answers

    def check(answers) -> int:
        failed = 0
        for (name, d, p), member, (parsed, nf, _text) in zip(queries, expected, answers):
            # The normal form must be congruent to the query in the Smith-form
            # engine, and vanish exactly for members.
            if parsed != p or (not nf) != member or not pieces[name, d].is_zero(p - nf):
                failed += 1
        return failed + abs(len(queries) - len(answers))

    return Workload(
        "membership",
        len(queries),
        run,
        check,
        {"member_share": sum(expected) / len(expected)},
    )


def prepare(name: str, seed: int, corruption: str | None = None) -> Workload:
    """Set up workload ``name``; ``corruption`` is passed to every Pipeline
    of the verify workloads, so the harness's own tests can inject a fault."""
    if name == "membership":
        return _membership_workload(seed)
    if name in PIPELINE_RUNS:
        return _pipeline_workload(name, corruption)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def write_golden() -> None:
    for max_degree in (10, 12):
        report = Pipeline(max_degree=max_degree).run()
        data = {
            "max_degree": max_degree,
            "overall": report.overall,
            "digests": {r["id"]: r["witness_digest"] for r in report.records()},
        }
        golden_path(max_degree).write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    write_golden()
