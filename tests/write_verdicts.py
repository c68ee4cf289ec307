"""The verdict table of the acceptance corpus: ``tests/golden/verdicts.tsv``.

One row per corpus map (kind ``weyl``, decided by
``decide_weyl_automorphism``) and one per its center restriction sigma|Z
(kind ``center``, decided by ``decide_poly_automorphism``): the label, the
first 16 hex digits of the sha256 of the map's endo file text, the status,
the found degree (``-`` for none), the searched degree and the certified
bound.  ``tests/test_verdicts.py`` recomputes the table and compares; its
docstring states when the file may be regenerated.  Regenerate it with

    PYTHONPATH=src python tests/write_verdicts.py

and review the diff.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from canonalg.conjectures import decide_poly_automorphism, decide_weyl_automorphism
from canonalg.parsing import EndoFile, print_endo_file
from canonalg.reduction import induced_center_endo

from util import labelled_weyl_corpus

VERDICTS = Path(__file__).parent / "golden" / "verdicts.tsv"
COLUMNS = ("label", "digest", "status", "found_degree", "searched_degree", "certified_bound")


def _row(label: str, kind: str, endo, decide) -> tuple[str, ...]:
    n = endo.algebra.n if kind == "weyl" else None
    text = print_endo_file(EndoFile(endo.ring, kind, n, len(endo.images), endo.images))
    d = decide(endo)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    found = "-" if d.found_degree is None else str(d.found_degree)
    return label, digest, d.status, found, str(d.searched_degree), str(d.certified_bound)


def verdict_rows() -> list[tuple[str, ...]]:
    """The table's rows, each a tuple of :data:`COLUMNS` as text: every
    Weyl map in corpus order, then every sigma|Z in the same order."""
    weyl, center = [], []
    for label, endo in labelled_weyl_corpus():
        weyl.append(_row(f"weyl/{label}", "weyl", endo, decide_weyl_automorphism))
        center.append(_row(f"center/{label}", "poly", induced_center_endo(endo).endo, decide_poly_automorphism))
    return weyl + center


def read_table() -> list[tuple[str, ...]]:
    """The committed rows, without the header."""
    header, *rows = [tuple(line.split("\t")) for line in VERDICTS.read_text(encoding="utf-8").splitlines()]
    assert header == COLUMNS, header
    return rows


if __name__ == "__main__":
    rows = verdict_rows()
    VERDICTS.write_text("".join("\t".join(row) + "\n" for row in [COLUMNS, *rows]), encoding="utf-8")
    for kind in ("weyl", "center"):
        statuses = [row[2] for row in rows if row[0].startswith(kind + "/")]
        print(kind, *(f"{s} {statuses.count(s)}" for s in ("yes", "no", "unknown")), file=sys.stderr)
