"""Smoke tests of tools/ab.py, the A/B timing script for two source trees."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab.py"


def _ab(a, b, workload="tree-unit"):
    cmd = [sys.executable, str(AB), str(a), str(b), "--workload", workload]
    return subprocess.run(
        cmd + ["--seed", "1", "--pairs", "1", "--smoke"], capture_output=True, text=True
    )


def test_ab_smoke_same_tree_agrees():
    done = _ab(ROOT / "src", ROOT / "src")
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["differing_pairs"] == [] and summary["solves"] == 1
    assert summary["a"]["wins"] + summary["b"]["wins"] <= 1
    for side in ("a", "b"):
        q1, med, q3 = summary[side]["cpu_s"]
        assert 0 < q1 <= med <= q3 and summary[side]["peak_rss_mb"] > 0
        assert summary[side]["minflt"] > 0
    assert "minor faults median " in done.stdout


def test_ab_reports_cpu_per_family():
    # sweep-small mixes all four solver families; each gets its own CPU
    # figures, and with one pair the family figures sum to the total
    done = _ab(ROOT / "src", ROOT / "src", "sweep-small")
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    families = {"unweighted-graph", "weighted-graph", "unweighted-tree", "weighted-tree"}
    assert set(summary["family_b_over_a"]) == families
    for side in ("a", "b"):
        per = summary[side]["family_cpu_s"]
        assert set(per) == families
        assert sum(med for _q1, med, _q3 in per.values()) == pytest.approx(summary[side]["cpu_s"][1])
    for fam in families:
        assert f"  {fam}: A " in done.stdout, fam


def test_ab_fails_when_outputs_differ(tmp_path):
    # a copy of the sources whose solutions print one more space
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src" / "ckoc", tmp_path / "ckoc", ignore=skip)
    with open(tmp_path / "ckoc" / "graph_core.py", "a") as f:
        f.write("\n_json = Solution.to_json\nSolution.to_json = lambda s, g: _json(s, g) + ' '\n")
    done = _ab(ROOT / "src", tmp_path, "sweep-small")
    assert done.returncode == 1, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["differing_pairs"] == [0]
