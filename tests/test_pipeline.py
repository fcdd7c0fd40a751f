"""The end-to-end verification pipeline: reports, selection, fault injection."""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from genus2chow import classifying, groebner, intlinalg
from genus2chow import pipeline as pipeline_module
from genus2chow.pipeline import (
    Pipeline,
    UnknownCheckError,
    pushforward_boundary_to_total,
)
from genus2chow.bundles import SClassCombo
from genus2chow.ring import Ring

from helpers import child_env, normal_form_rings, relation_rows, sparse

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden"
GOLDEN_D10 = GOLDEN / "verify-d10.json"


class TestFullRun:
    def test_every_check_passes(self, pipeline):
        report = pipeline.run()
        failures = [c.id for c in report.checks if c.status != "pass"]
        assert not failures, failures
        assert report.overall == "pass"
        assert len(report.checks) == len(Pipeline.CHECKS)
        # The witnesses are pinned by digest: every refactor must reproduce
        # them exactly.
        golden = json.loads(GOLDEN_D10.read_text())
        assert pipeline.max_degree == golden["max_degree"]
        assert {r["id"]: r["witness_digest"] for r in report.records()} == golden["digests"]
        assert report.overall == golden["overall"]

    def test_degree_12_witnesses_match_golden(self):
        # Some witnesses quote the degree bound, so degree 12 is pinned too.
        report = Pipeline(max_degree=12).run()
        golden = json.loads((GOLDEN / "verify-d12.json").read_text())
        assert golden["max_degree"] == 12
        assert {r["id"]: r["witness_digest"] for r in report.records()} == golden["digests"]
        assert report.overall == golden["overall"]

    def test_single_check_selection(self, pipeline):
        report = pipeline.run(ids=["thm:bg"])
        assert [c.id for c in report.checks] == ["thm:bg"]
        assert report.overall == "pass"

    def test_unknown_id_rejected(self, pipeline):
        with pytest.raises(UnknownCheckError):
            pipeline.run(ids=["bogus"])

    def test_empty_selection_rejected(self, pipeline):
        # A report of no checks would pass while verifying nothing.
        with pytest.raises(ValueError, match="no check selected"):
            pipeline.run(ids=[])

    def test_selection_preserves_dependency_order(self, pipeline):
        report = pipeline.run(ids=["thm:main", "adelta1"])
        assert [c.id for c in report.checks] == ["adelta1", "thm:main"]

    def test_registry_order_is_a_dependency_order(self):
        # run() orders a selection by the registry, so every dependency of a
        # check must be registered before it.
        seen = set()
        for cdef in Pipeline.CHECKS:
            assert set(cdef.deps) <= seen, (cdef.id, set(cdef.deps) - seen)
            seen.add(cdef.id)
        assert Pipeline.check_ids() == [c.id for c in Pipeline.CHECKS]

    def test_repeated_id_runs_once(self, pipeline):
        report = pipeline.run(ids=["kappa", "thm:bg", "kappa"])
        assert [c.id for c in report.checks] == ["thm:bg", "kappa"]


class TestFaultInjection:
    def test_corruption_fails_exactly_the_dependents(self):
        corrupted = Pipeline(max_degree=10, corruption="delta1-excision")
        report = corrupted.run()
        failing = {c.id for c in report.checks if c.status == "fail"}
        # The flipped coefficient sits in the second boundary excision
        # pushforward; its consumers are the boundary presentation, the
        # kernel enumeration over the derived ring, and the final assembly.
        # (The degree-5 image check only uses the untouched generator, and
        # the engine cross-check compares both engines on the same ideal.)
        assert failing == {"adelta1", "degree3-kernel", "thm:main"}
        (adelta1,) = [c for c in report.checks if c.id == "adelta1"]
        assert adelta1.witness.startswith("second excision pushforward is")
        dependents = set()

        def walk(cid):
            for cdef in Pipeline.CHECKS:
                if cid in cdef.deps and cdef.id not in dependents:
                    dependents.add(cdef.id)
                    walk(cdef.id)

        dependents.add("adelta1")
        walk("adelta1")
        assert failing <= dependents

    def test_failure_witness_is_independent_of_hash_seed(self):
        # The failing degree3-kernel witness lists the enumerated kernel
        # classes, so their order must not depend on set iteration order.
        code = (
            "from genus2chow.pipeline import Pipeline\n"
            "report = Pipeline(corruption='delta1-excision').run(ids=['degree3-kernel'])\n"
            "(check,) = report.checks\n"
            "print(check.status, check.record()['witness_digest'])\n"
        )
        outputs = set()
        for seed in ("1", "2", "3"):
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=child_env(PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert outputs.pop().startswith("fail ")

    def test_failure_witness_names_the_stated_value(self, pipeline):
        kappa = pipeline.grr_data["kappa_class"]
        fresh = Pipeline()
        fresh.__dict__["grr_data"] = {**pipeline.grr_data, "kappa_class": 2 * kappa}
        (check,) = fresh.run(ids=["kappa"]).checks
        assert check.status == "fail"
        assert check.witness == f"series quotient gives {2 * kappa}, expected {kappa}"

    def test_hyperplane_class_declared_last_is_not_eliminated(self):
        # With t last in the monomial order the twist class t - 2*lambda1 is
        # led by lambda1.
        fresh = Pipeline()
        fresh.__dict__["groth_ring"] = Ring(("lambda1", 1), ("lambda2", 2), ("t", 1))
        (check,) = fresh.run(ids=["thm:45"]).checks
        assert check.status == "fail"
        assert check.witness == "the twist class is not led by the hyperplane class"

    def test_completion_at_the_column_cap_fails_as_data(self, monkeypatch):
        # The main ideal closes in degree 4; a cap of 13 columns, those of
        # degrees 0..3, stops its completion.  The oracle completes it (the
        # "total" presentation); the other five are completed before the cap
        # is set, so the main ideal's completion is the one that fails.
        fresh = Pipeline()
        for name, spec in fresh.presentations.items():
            if name != "total":
                spec.groebner
        monkeypatch.setattr(groebner, "_MAX_COLUMNS", 13)
        (check,) = fresh.run(ids=["oracle-agreement"]).checks
        assert check.status == "fail"
        assert check.witness.startswith("RuntimeError: Groebner completion reached the column cap 13")

    @pytest.mark.parametrize(("module", "check_id", "witness"), [
        (pipeline_module, "sij-expansions", "s10 expands as"),
        (classifying, "thm:bg", "excision relations came out as"),
    ])
    def test_doubled_veronese_coefficient_fails_a_stated_check(
        self, monkeypatch, module, check_id, witness
    ):
        # The Veronese pushforwards have no stated copy of their own: the
        # stated expansions of s_i^j (cubing) and the stated excision
        # relations (squaring) fix each coefficient.  Doubling the one on
        # s_k^1 must fail them.
        original = module.veronese_pushforward

        def doubled(k, j, classes):
            combo = original(k, j, classes)
            return SClassCombo(k, [2 * c if i == 1 else c for i, c in enumerate(combo.coeffs)])

        monkeypatch.setattr(module, "veronese_pushforward", doubled)
        (check,) = Pipeline().run(ids=[check_id]).checks
        assert check.status == "fail"
        assert check.witness.startswith(witness)

    def test_unknown_corruption_rejected(self):
        with pytest.raises(ValueError):
            Pipeline(corruption="nonsense")


class TestReport:
    def test_equality_ignores_timings(self):
        # Two runs are compared by the deterministic part of their records;
        # timings are left out.
        def deterministic(report):
            return [(r["id"], r["status"], r["witness_digest"]) for r in report.records()]

        report = Pipeline(10).run()
        assert deterministic(report) == deterministic(Pipeline(10).run())
        failed = report._replace(checks=[report.checks[0]._replace(status="fail")])
        assert deterministic(failed) != deterministic(report)
        data = json.loads(report.to_json())
        assert set(data) == {"schema", "max_degree", "overall", "checks"}
        assert data["schema"] == "genus2chow-report/1"
        assert data["checks"] == report.records()

    def test_record_schema(self, pipeline):
        report = pipeline.run(ids=["kappa"])
        (record,) = report.records()
        assert set(record) == {"id", "anchor", "status", "witness_digest", "elapsed_ms"}
        assert record["status"] == "pass"
        assert isinstance(record["elapsed_ms"], int)

    def test_witnesses_are_nonempty(self, pipeline):
        report = pipeline.run()
        assert all(c.witness for c in report.checks)


class TestExplain:
    def test_known_ids(self, pipeline):
        text = pipeline.explain("adelta1")
        assert "24*lambda1^2 - 48*lambda2" in text
        assert "dependency chain" in text
        text = pipeline.explain("thm:bg")
        assert "2*gamma" in text and "gamma^2 + beta1*gamma" in text
        text = pipeline.explain("det-7x7")
        assert "86400*(lambda1^2 - 4*lambda2)^3" in text

    def test_unknown_id(self, pipeline):
        with pytest.raises(UnknownCheckError):
            pipeline.explain("nope")

    def test_every_registered_check_explains(self, pipeline):
        for cdef in Pipeline.CHECKS:
            text = pipeline.explain(cdef.id)
            assert cdef.id in text and cdef.anchor in text

    def test_membership_statement_names_the_unhalved_class(self, pipeline):
        # Only the pushforward s02 = 2*s02' lies in (s00, s10), not the halved
        # generator, and the stated text says so.
        polys = pipeline.s6["polys"]
        spec = groebner.RingSpec(pipeline.groth_ring, (polys["s00"], polys["s10"]))
        assert not spec.contains(polys["s02'"])
        assert spec.contains(2 * polys["s02'"])
        stated = Pipeline.check_def("groth-membership").stated
        assert stated == "p, s10, s11, s12, s13, s00, s01, s02 all lie in (s00, s10)"
        assert stated in pipeline.explain("groth-membership")

    def test_explain_derives_nothing(self):
        fresh = Pipeline()
        for check_id in Pipeline.check_ids():
            fresh.explain(check_id)
        assert set(vars(fresh)) == {"max_degree", "corruption"}


class TestStrataRings:
    def test_presentations(self, pipeline):
        assert groebner.ideal_equal(pipeline.delta1_ring, pipeline.delta1_data["stated"])
        assert pipeline.gm_data["open_stated"].ring.names == ("lambda1", "lambda2")
        m2bar = pipeline.m2bar_ring
        assert m2bar.contains(m2bar.parse("delta1^3 + delta1^2*lambda1"))
        bielliptic = pipeline.bielliptic_data["stated"]
        assert bielliptic.contains(bielliptic.parse("8*lambda1^3 - 8*lambda1*lambda2"))
        assert pipeline.gm_data["spec"].ring.names == ("t", "lambda1", "lambda2")

    def test_each_ideal_completed_once(self, monkeypatch):
        # Every basis lives on the RingSpec that presents its ideal, and a
        # basis is completed only where a normal form is read: the six
        # presentations, which the oracle compares, and the three rings whose
        # normal forms the witnesses print.  Membership and ideal equality
        # read the kept lattices.
        completed = Counter()
        complete = groebner.strong_groebner

        def counting(ideal):
            completed[ideal] += 1
            return complete(ideal)

        monkeypatch.setattr(groebner, "strong_groebner", counting)
        fresh = Pipeline(max_degree=10)
        assert fresh.run().overall == "pass"
        repeated = {ideal: n for ideal, n in completed.items() if n > 1}
        assert repeated == {}
        assert sum(completed.values()) == 9
        assert set(completed) == set(normal_form_rings(fresh).values())

    def test_grr_assembly_completes_no_basis(self, monkeypatch):
        # The quadric is solved for the square of the dualizing class, so
        # the rewrite is plain arithmetic.
        def no_basis(ideal):
            raise AssertionError("Groebner basis completed")

        monkeypatch.setattr(groebner, "strong_groebner", no_basis)
        fresh = Pipeline()
        fresh.grr_data
        assert fresh.run_check("delta0").status == "pass"

    def test_twist_kernel_runs_no_smith_form(self, monkeypatch):
        # thm:45 compares kernel lattices by their Hermite bases.
        def no_smith_form(*args, **kwargs):
            raise AssertionError("Smith form taken")

        monkeypatch.setattr(intlinalg, "smith_normal_form", no_smith_form)
        assert Pipeline(max_degree=10).run(ids=["thm:45"]).overall == "pass"

    def test_only_thm45_derives_the_twist_kernel(self, monkeypatch):
        # The degree bound reaches the twist kernel alone: reading the six
        # presentations and running the oracle derive none, a full run one.
        real = pipeline_module.multiplication_kernel

        def refuse(*args):
            raise AssertionError("twist kernel derived")

        monkeypatch.setattr(pipeline_module, "multiplication_kernel", refuse)
        fresh = Pipeline()
        assert len(fresh.presentations) == 6
        assert fresh.run(ids=["oracle-agreement"]).overall == "pass"

        calls = []

        def counted(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(pipeline_module, "multiplication_kernel", counted)
        assert Pipeline(max_degree=10).run().overall == "pass"
        assert calls == [10]

    def test_total_ring_is_built_from_its_stated_text(self):
        fresh = Pipeline()
        fresh.m2bar_ring
        assert set(vars(fresh)) == {"max_degree", "corruption", "m2bar_ring"}


class TestBoundaryPushforward:
    @pytest.fixture
    def rings(self):
        source = Ring(("lambda1", 1), ("lambda2", 2), ("gamma", 1))
        target = Ring(("lambda1", 1), ("lambda2", 2), ("delta1", 1))
        return source, target

    def test_involution_class(self, rings):
        source, target = rings
        out = pushforward_boundary_to_total(source.var("gamma"), target)
        assert out == target.parse("delta1*(delta1 + lambda1)")

    def test_doubled_relation(self, rings):
        source, target = rings
        out = pushforward_boundary_to_total(source.parse("2*gamma"), target)
        assert out == target.parse("2*delta1^2 + 2*delta1*lambda1")

    def test_fundamental_class(self, rings):
        source, target = rings
        out = pushforward_boundary_to_total(source.one(), target)
        assert out == target.var("delta1")


class TestLocalizationExactness:
    """The three presentations fit into a degreewise short exact sequence:
    boundary classes inject into the total ring under pushforward, their
    image is exactly the kernel of restriction to the open stratum, and
    restriction is onto.  This cross-validates all three rings at once."""

    def test_short_exact_sequence_on_graded_pieces(self, pipeline):
        from genus2chow import intlinalg as la
        from genus2chow.ring import IntPolynomial

        boundary = pipeline.delta1_data["stated"]
        total = pipeline.m2bar_ring
        open_stratum = pipeline.gm_data["open_stated"]

        for d in range(1, 7):
            bmons, brows = relation_rows(boundary, d - 1)
            tmons, trows = relation_rows(total, d)
            omons, orows = relation_rows(open_stratum, d)

            push_rows = []
            for exps in bmons:
                mono = IntPolynomial(boundary.ring, {exps: 1})
                image = pushforward_boundary_to_total(mono, total.ring)
                push_rows.append(image.row())
            restrict_rows = []
            for exps in tmons:
                mono = IntPolynomial(total.ring, {exps: 1})
                image = mono.substitute({"delta1": 0}, target=open_stratum.ring)
                restrict_rows.append(image.row())

            # Injectivity: the lattice of boundary vectors pushing into the
            # total relation lattice is no bigger than the boundary relations.
            preimage = la.preimage_basis(push_rows, trows, len(tmons))
            assert preimage == la.lattice_basis(brows, len(bmons)), f"degree {d}"

            # Surjectivity: restriction plus the open relations span everything.
            assert la.lattice_basis(
                restrict_rows + orows, len(omons)
            ) == list(map(sparse, la.identity(len(omons)))), f"degree {d}"

            # Exactness in the middle: kernel of restriction equals the image
            # of the pushforward together with the total relations.
            restr_kernel = la.preimage_basis(restrict_rows, orows, len(omons))
            image = la.lattice_basis(push_rows + trows, len(tmons))
            assert restr_kernel == image, f"degree {d}"


class TestConfigBounds:
    def test_low_degree_rejected(self):
        with pytest.raises(ValueError):
            Pipeline(max_degree=4)

    @pytest.mark.parametrize("bound", [10.0, True, "10", None])
    def test_non_integer_degree_rejected(self, bound):
        # A float bound would reach thm:45's degree range as a float, and
        # True would equal 1.
        with pytest.raises(ValueError, match="must be an int"):
            Pipeline(max_degree=bound)

    def test_high_degree_rejected(self):
        # On a 2-vCPU host thm:45 alone takes about 0.9 s at degree 24 and
        # 2.4 s at 32 (Python 3.11); the cap keeps every accepted bound quick.
        assert Pipeline(max_degree=24).max_degree == 24
        with pytest.raises(ValueError, match="above 24"):
            Pipeline(max_degree=25)

    def test_degree_five_runs_quickly(self):
        report = Pipeline(max_degree=5).run(ids=["thm:45"])
        assert report.overall == "pass"

    def test_oracle_bound_does_not_follow_max_degree(self):
        report = Pipeline(max_degree=5).run(ids=["oracle-agreement"])
        assert report.overall == "pass"
        assert report.checks[0].witness.endswith("through degree 8")

    def test_oracle_compares_every_degree_through_eight(self, pipeline, monkeypatch):
        # The loop must reach the degree that the witness and the stated text
        # name.
        degrees = {}

        def recording(spec, d):
            degrees.setdefault(spec, []).append(d)
            return True

        monkeypatch.setattr(pipeline_module, "membership_matches_normal_form", recording)
        assert pipeline.run_check("oracle-agreement").status == "pass"
        presentations = pipeline.presentations
        assert len(degrees) == len(presentations) == 6
        for spec in presentations.values():
            assert degrees[spec] == list(range(9))
