"""k-th levels stay byte-identical to the recorded golden corpus.

tests/golden/klevel.jsonl was written by tests/record_golden_klevel.py; a
mismatch here means a change altered some level's vertices or lowest
point, not that the corpus needs recording again.
"""

from __future__ import annotations

import json

from record_golden_klevel import GOLDEN, cases, levels, record_line


def test_golden_klevels():
    want = GOLDEN.read_text().splitlines()
    got = [
        record_line(name, edge, k, level)
        for name, text in cases()
        for edge, k, level in levels(text)
    ]
    assert len(got) == len(want)
    diffs = [(json.loads(a), b) for a, b in zip(want, got) if a != b]
    assert not diffs, f"{len(diffs)} levels changed, first: {diffs[0]}"
