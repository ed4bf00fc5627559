"""Solve outputs stay byte-identical to the recorded golden corpus.

tests/golden/solve.jsonl was written by tests/record_golden.py; a
mismatch here means a change altered some solver's answer, center or
witness, not that the corpus needs recording again.
"""

from __future__ import annotations

import json

from ckoc import cli
from record_golden import GOLDEN, cases, record_line, solves


def test_golden_solve_outputs():
    want = GOLDEN.read_text().splitlines()
    got = []
    for case in cases():
        g, todo = solves(case)
        for algo, k in todo:
            got.append(record_line(case, algo, k, cli._dispatch(g, k, algo, "auto").to_json(g)))
    assert len(got) == len(want)
    diffs = [(json.loads(a), b) for a, b in zip(want, got) if a != b]
    assert not diffs, f"{len(diffs)} outputs changed, first: {diffs[0]}"
