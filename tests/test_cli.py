"""Command-line interface: exit codes, output formats, explain, listing."""

import json

from genus2chow.cli import main

from helpers import child_env


class TestVerify:
    def test_single_check_text(self, capsys):
        assert main(["verify", "--check", "thm:main"]) == 0
        out = capsys.readouterr().out
        assert "thm:main" in out
        assert "1/1 checks passed" in out

    def test_unknown_check_exit_2(self, capsys):
        assert main(["verify", "--check", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "thm:bg" in err

    def test_json_format(self, capsys):
        assert main(["verify", "--check", "kappa", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["overall"] == "pass"
        assert data["checks"][0]["id"] == "kappa"
        assert set(data["checks"][0]) == {
            "id", "anchor", "status", "witness_digest", "elapsed_ms",
        }

    def test_check_flag_repeats(self, capsys):
        assert main(
            ["verify", "--check", "delta0", "--check", "kappa", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert [c["id"] for c in data["checks"]] == ["kappa", "delta0"]

    def test_max_degree_validation(self, capsys):
        assert main(["verify", "--check", "kappa", "--max-degree", "3"]) == 2
        assert main(["verify", "--check", "kappa", "--max-degree", "25"]) == 2
        assert "above 24" in capsys.readouterr().err
        assert main(["verify", "--check", "kappa", "--max-degree", "24"]) == 0

    def test_bad_flag_exit_2(self):
        assert main(["verify", "--frobnicate"]) == 2

    def test_fail_fast_is_not_an_option(self, capsys):
        assert main(["verify", "--check", "kappa", "--fail-fast"]) == 2
        assert "unrecognized arguments: --fail-fast" in capsys.readouterr().err

    def test_all_and_check_mutually_exclusive(self):
        assert main(["verify", "--all", "--check", "kappa"]) == 2

    def test_help_describes_every_option(self, capsys):
        assert main(["verify", "-h"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "degree through which thm:45 compares the twist kernel" in out
        assert "5 to 24 (default 10)" in out
        assert "report as text lines or as one JSON document" in out


class TestExplain:
    def test_known(self, capsys):
        assert main(["explain", "thm:bg"]) == 0
        out = capsys.readouterr().out
        assert "2*gamma" in out

    def test_unknown(self, capsys):
        assert main(["explain", "nothing"]) == 2


class TestListChecks:
    def test_lists_all_ids(self, capsys):
        assert main(["list-checks"]) == 0
        out = capsys.readouterr().out
        for check_id in ("thm:bg", "adelta1", "thm:45", "thm:main", "det-7x7"):
            assert check_id in out


class TestProcessLevel:
    def test_module_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "genus2chow", "verify", "--check", "kappa"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "kappa" in proc.stdout

    def test_twist_kernel_at_degree_14_finishes(self):
        # The degree-13 twist-kernel quotient has 108 redundant rows; its
        # kernel, a preimage lattice, must still come out in bounded time.
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "genus2chow", "verify", "--check", "thm:45",
             "--max-degree", "14"],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert proc.returncode == 0

    def test_full_report_is_independent_of_hash_seed(self):
        # A basis keeps its reduction rows in a dict keyed by exponent
        # tuples; no verdict or witness may depend on how they hash.
        import subprocess
        import sys

        reports = []
        for seed in ("1", "2", "3"):
            proc = subprocess.run(
                [sys.executable, "-m", "genus2chow", "verify", "--all",
                 "--max-degree", "12", "--format", "json"],
                capture_output=True,
                text=True,
                env=child_env(PYTHONHASHSEED=seed),
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            data = json.loads(proc.stdout)
            assert data["overall"] == "pass"
            reports.append((
                data["overall"],
                [(c["id"], c["status"], c["witness_digest"]) for c in data["checks"]],
            ))
        assert len(reports[0][1]) == 21
        assert reports[1:] == reports[:1] * 2
