"""The acceptance corpus's verdicts, row by row, against ``tests/golden/verdicts.tsv``.

Every change of a verdict is listed here, not only a change of the counts
(82 yes, 15 no, 20 unknown on each side when the table was first written).
The rules:

- a map that goes from "yes" to "no" or back is a defect, and the table is
  not regenerated to hide it;
- a map that goes from "unknown" to decided, or whose searched degree
  changes, is regenerated (``PYTHONPATH=src python tests/write_verdicts.py``)
  in the change that causes it, and listed in CHANGES.md;
- a changed digest means a seed no longer draws its map, which is a change
  of generated data and is regenerated and listed the same way;
- every "no" row has searched the whole certified bound, and every "yes"
  row found its inverse within the degree it searched.
"""

from __future__ import annotations

import pytest

from write_verdicts import read_table, verdict_rows

LABEL, DIGEST, STATUS, FOUND, SEARCHED, BOUND = range(6)


@pytest.fixture(scope="module")
def tables():
    return read_table(), verdict_rows()


def test_no_map_flips_between_yes_and_no(tables):
    want, got = (dict((row[LABEL], row) for row in rows) for rows in tables)
    flips = [
        f"{label}: {want[label][STATUS]} -> {got[label][STATUS]}"
        for label in want.keys() & got.keys()
        if {want[label][STATUS], got[label][STATUS]} == {"yes", "no"}
    ]
    assert not flips, "verdict flips (a defect): " + "; ".join(sorted(flips))


def test_every_decision_rests_on_its_search(tables):
    for row in tables[1]:
        if row[STATUS] == "no":
            assert int(row[SEARCHED]) >= int(row[BOUND]), row
        if row[STATUS] == "yes":
            assert int(row[FOUND]) <= int(row[SEARCHED]), row


def test_verdict_table_matches_golden(tables):
    want, got = tables
    changed = [f"{w} -> {g}" for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) == 2 * 117
    assert not changed, "changed rows:\n" + "\n".join(changed)
