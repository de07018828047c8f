"""Committed benchmark summaries (BENCH_*.json) give every field they must."""

import copy
import glob
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location(
    "check_bench", os.path.join(ROOT, "scripts", "check_bench.py"))
check_bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(check_bench)
SUMMARIES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def test_committed_summaries_complete(capsys):
    assert SUMMARIES
    assert check_bench.main(SUMMARIES) == 0, capsys.readouterr().out


@pytest.mark.parametrize("drop", [
    ("workloads",), ("traced",), ("traced", "change"),
    ("workloads", "forward-sweep", "seeds"),
    ("workloads", "forward-sweep", "metrics", "op_ms_p50", "parent", "q1"),
    ("workloads", "forward-sweep", "metrics", "op_ms_p50", "change", "median"),
])
def test_missing_field_fails(tmp_path, capsys, drop):
    with open(os.path.join(ROOT, "BENCH_10.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    broken = copy.deepcopy(data)
    node = broken
    for key in drop[:-1]:
        node = node[key]
    del node[drop[-1]]
    assert check_bench.problems(data) == []
    assert check_bench.problems(broken)
    path = tmp_path / "BENCH_broken.json"
    path.write_text(json.dumps(broken))
    assert check_bench.main([str(path)]) == 1
    assert "BENCH_broken.json:" in capsys.readouterr().out
