"""The recorded benchmark runs: every ``BENCH_*.json`` at the repository root.

Such a file holds ``records``.  A record names the commit, the PR, the
workload, the seed and the ``--seconds`` of its runs, and holds the runs
themselves: for each, the provenance line and the result line that
``bench/run.py`` printed.  A run is either correct, with every end-to-end
metric of ``BENCHMARK.json`` finite and positive, or it records its failure.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def test_some_runs_are_recorded():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_every_record_is_complete(path):
    records = json.loads(path.read_text())["records"]
    assert records
    keys = set()
    for record in records:
        for field, kind in (("commit", str), ("workload", str), ("seed", int), ("seconds", (int, float))):
            assert isinstance(record.get(field), kind) and record[field] != "", (field, record)
        key = tuple(record.get(field) for field in ("commit", "pr", "workload", "seed", "seconds"))
        assert key not in keys, key
        keys.add(key)
        assert record["runs"], key
        for run in record["runs"]:
            if "failure" in run:
                assert run["failure"], key
                continue
            made = run["provenance"]
            assert (made["workload"], made["seed"], made["seconds"]) == key[2:], key
            result = run["result"]
            assert result["correct"] is True and result["failed"] == 0, key
            for name in END_TO_END:
                value = result["metrics"][name]["value"]
                assert math.isfinite(value) and value > 0, (key, name, value)
