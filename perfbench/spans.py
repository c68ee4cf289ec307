"""Span tracing around canonalg's public entry points, from outside ``src/``.

:class:`Tracer` replaces each traced function or method with a wrapper
that records one span per call: a name, start and end times, the span open
when it was called (its parent) and the id of the benchmark operation it
belongs to.  A wrapper is installed in every canonalg module whose globals
hold the original, because ``from .linalg import solve_many`` copies the
name into the importing module.  Spans stay in memory, in flat arrays, and
are written as JSON lines when the run ends.

A layer's self time is its span's duration minus the part of it covered by
its child spans; see :func:`self_times`.  Everything runs in one thread, so
children never overlap and busy time is self time.

Counting ``Ring`` operations would put a wrapper around every scalar
operation and inflate every self time, so :func:`count_ring_ops` counts
them in a pass of their own.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

COUNT_SPAN = "trace.count"
OP_SPAN = "bench.op"


def _solve_many_counts(args, kwargs) -> dict:
    rows, rhs = args[1], args[2]
    if not rows:
        return {"cells": 0, "nnz": 0}
    width = len(rows[0]) + len(rhs)
    nnz = sum(len(r) - r.count(0) for r in rows) + sum(len(c) - c.count(0) for c in rhs)
    return {"cells": len(rows) * width, "nnz": nnz}


def _term_pairs(args, kwargs) -> dict:
    return {"term_pairs": len(args[0].terms) * len(args[1].terms)}


# (module, attribute, metric prefix, counts from the arguments, counts from
# the result, whether the argument count is costly enough to need a span of
# its own).  Class methods are given as "Class.method".
TARGETS = [
    ("linalg", "solve_many", "linalg.solve_many", _solve_many_counts, None, True),
    ("linalg", "matrix_rank", "linalg.matrix_rank", None, None, False),
    ("weyl", "inverse_search", "weyl.inverse_search", None, None, False),
    ("weyl", "WeylElement.__mul__", "weyl.WeylElement.__mul__", _term_pairs, None, False),
    ("weyl", "WeylEndo.compose", "weyl.WeylEndo.compose", None, None, False),
    ("weyl", "is_central", "weyl.is_central", None, None, False),
    ("weyl", "center_slice_check", "weyl.center_slice_check", None, None, False),
    ("reduction", "induced_center_endo", "reduction.induced_center_endo", None, None, False),
    ("poly", "Poly.__mul__", "poly.Poly.__mul__", _term_pairs, None, False),
    ("poly", "PolyEndo.compose", "poly.PolyEndo.compose", None, None, False),
    ("poly", "PolyMatrix.determinant", "poly.PolyMatrix.determinant", None, None, False),
    ("poly", "Poly.evaluate", "poly.Poly.evaluate", None, None, False),
    ("poisson", "is_symplectic", "poisson.is_symplectic", None, None, False),
    ("conjectures", "inverse_search_poly", "conjectures.inverse_search_poly", None, None, False),
    ("conjectures", "extension_degree_estimate", "conjectures.extension_degree_estimate", None, None, False),
    (
        "conjectures",
        "kraus_check",
        "conjectures.kraus_check",
        None,
        lambda rep: {"primes": len(rep.factorizations)},
        False,
    ),
    (
        "parsing",
        "parse_endo_file",
        "parsing.parse_endo_file",
        lambda args, kwargs: {"bytes": len(args[0].encode("utf-8"))},
        None,
        False,
    ),
    ("report", "dump_report", "report.dump_report", None, lambda text: {"bytes": len(text.encode("utf-8"))}, False),
    ("cli", "main", "cli.main", None, lambda code: {"exit2": int(code == 2)}, False),
    # Entry points that own the verdicts; they separate the rest of the time.
    ("conjectures", "decide_weyl_automorphism", "conjectures.decide_weyl_automorphism", None, None, False),
    ("conjectures", "decide_poly_automorphism", "conjectures.decide_poly_automorphism", None, None, False),
    ("conjectures", "chain_probe", "conjectures.chain_probe", None, None, False),
    ("conjectures", "check_instance", "conjectures.check_instance", None, None, False),
    ("reduction", "check_center_symplectic", "reduction.check_center_symplectic", None, None, False),
]

SEARCH_SPANS = ("weyl.inverse_search", "conjectures.inverse_search_poly")


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._stack.pop()

    def operation(self, op_id: int, fn: Callable[[], object]):
        """Run one benchmark operation under a root span carrying its id."""
        self.current_op = op_id
        sid = self.open(self._nid(OP_SPAN))
        try:
            return fn()
        finally:
            self.close(sid)
            self.current_op = -1

    def wrap(self, name: str, fn, arg_counts=None, result_counts=None, costly: bool = False):
        nid = self._nid(name)
        count_nid = self._nid(COUNT_SPAN)
        counts = self.counts

        def wrapper(*args, **kwargs):
            sid = self.open(nid)
            try:
                if arg_counts is not None:
                    if costly:
                        csid = self.open(count_nid)
                        extra = arg_counts(args, kwargs)
                        self.close(csid)
                    else:
                        extra = arg_counts(args, kwargs)
                    for key, value in extra.items():
                        counts[f"{name}.{key}"] += value
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if result_counts is not None:
                for key, value in result_counts(result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return wrapper

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        for module_name, *_ in TARGETS:
            importlib.import_module(f"canonalg.{module_name}")
        modules = [m for k, m in sys.modules.items() if k == "canonalg" or k.startswith("canonalg.")]
        for module_name, attr, name, arg_counts, result_counts, costly in TARGETS:
            module = sys.modules[f"canonalg.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, arg_counts, result_counts, costly))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, arg_counts, result_counts, costly)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- results -----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def layer_table(self) -> dict:
        """Per span name: calls, self_s, and the work counts recorded for it."""
        selfs = self_times(self.start, self.end, self.parent)
        table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for sid, nid in enumerate(self.name_id):
            row = table[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += selfs[sid]
        for key, value in self.counts.items():
            name, _, what = key.rpartition(".")
            table[name][what] = value
        return dict(table)

    def caps_per_search(self) -> float:
        """Linear solves per inverse search (one solve per degree cap tried)."""
        search_ids = {self._name_ids[n] for n in SEARCH_SPANS if n in self._name_ids}
        solve_id = self._name_ids.get("linalg.solve_many")
        searches = sum(1 for nid in self.name_id if nid in search_ids)
        solves = sum(
            1
            for sid, nid in enumerate(self.name_id)
            if nid == solve_id and self.parent[sid] >= 0 and self.name_id[self.parent[sid]] in search_ids
        )
        return solves / searches if searches else 0.0

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(len(self.start)):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "op": self.op[sid],
                            "name": self.names[self.name_id[sid]],
                            "start": self.start[sid],
                            "end": self.end[sid],
                            "parent": self.parent[sid],
                        }
                    )
                    + "\n"
                )


def self_times(start, end, parent) -> list:
    """Each span's duration minus the summed durations of its direct children.

    Spans are single-threaded and properly nested, so the children of one
    span never overlap and their summed durations are exactly the part of
    the parent's interval they cover.
    """
    out = [e - s for s, e in zip(start, end)]
    for sid, pid in enumerate(parent):
        if pid >= 0:
            out[pid] -= end[sid] - start[sid]
    return out


RING_OPS = ("add", "sub", "mul", "neg", "inv", "is_zero", "zero")


def count_ring_ops(ring_cls, fn: Callable[[], object]) -> dict:
    """Run ``fn`` with every ``Ring`` scalar operation counted by ring kind."""
    counts = {"Z": 0, "Q": 0, "Fp": 0}
    originals = {name: ring_cls.__dict__[name] for name in RING_OPS}

    def counted(original):
        def wrapper(self, *args):
            counts[self.kind] += 1
            return original(self, *args)

        return wrapper

    for name, original in originals.items():
        setattr(ring_cls, name, counted(original))
    try:
        fn()
    finally:
        for name, original in originals.items():
            setattr(ring_cls, name, original)
    return counts
