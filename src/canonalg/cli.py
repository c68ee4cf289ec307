"""Command-line front end.

Exit codes: 0 = every asserted property held, 1 = a falsification or
counterexample was found (the witness is in the report), 2 = invalid input,
3 = internal error (a bug, never a verdict; one ``internal error:`` line on
stderr and no report).
A machine-readable report can be written with ``--json``; identical inputs
and seeds produce byte-identical reports.

The argument parser is built on the first :func:`main` call and shared by
every later call in the process; each call parses into a fresh namespace, so
no argument value carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .conjectures import (
    MONOMIAL_BUDGET,
    TAGS,
    chain_probe,
    check_instance,
    counterexample_suite,
    decide_poly_automorphism,
    decide_weyl_automorphism,
    kraus_check,
)
from .parsing import EndoFile, ParseError, parse_endo_file
from .poly import monomial_count
from .poisson import PoissonContext, check_symplectic
from .reduction import check_center_symplectic
from .report import build_report, dump_report, input_digest, record_fields
from .rings import NonUnitError, is_numeral, ring_from_text
from .weyl import WeylAlgebra, center_slice_check, verify_endo_relations


def integer(text: str) -> int:
    """A decimal integer argument: an optional ``-``, then ASCII digits."""
    if not is_numeral(text.removeprefix("-")):
        raise ValueError(text)
    return int(text)


def u64(text: str) -> int:
    """An unsigned 64-bit integer argument; anything else is a usage error."""
    value = integer(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"{value} is outside [0, 2^64)")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canonalg",
        description="Exact checks on Poisson and Weyl algebra endomorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, needs_input: bool, **extra):
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("--input", required=True, help="endomorphism definition file")
        p.add_argument("--seed", type=u64, default=0, help="echoed into the report, 0 <= seed < 2^64")
        p.add_argument("--json", help="write the JSON report to this path")
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
        return p

    add("check-symplectic", True)
    add("check-weyl-endo", True)
    add("reduce", True)
    add("invert", True, **{"--degree-cap": dict(type=integer, default=None)})
    add("invert-weyl", True, **{"--degree-cap": dict(type=integer, default=None)})
    add("check-instance", True, **{"--tag": dict(required=True, choices=TAGS)})
    add(
        "center-slice",
        False,
        **{
            "--ring": dict(required=True, help="prime field literal, e.g. F2"),
            "--n": dict(type=integer, required=True),
            "--degree-cap": dict(type=integer, required=True),
        },
    )
    add("kraus", False, **{"--p-max": dict(type=integer, default=1000)})
    add("suite", False, **{"--p-max": dict(type=integer, default=1000)})
    add("probe-chain", True)
    return parser


def _check_degree_cap(cap: int, nvars: int) -> int:
    """Refuse a negative cap, or one whose monomial basis exceeds the budget;
    returns the basis size."""
    if cap < 0:
        raise ValueError(f"--degree-cap must be >= 0, got {cap}")
    size = monomial_count(nvars, cap)
    if size > MONOMIAL_BUDGET:
        raise ValueError(
            f"--degree-cap {cap} needs {size} monomials in {nvars} variables, "
            f"over the budget of {MONOMIAL_BUDGET}"
        )
    return size


def _read(args, *kinds: str) -> tuple[EndoFile, str]:
    """The ``--input`` file, parsed and refused unless its kind is one of
    ``kinds``, with the digest of its bytes: (EndoFile, digest)."""
    data = Path(args.input).read_bytes()
    ef = parse_endo_file(data.decode("utf-8"))
    if ef.kind not in kinds:
        wanted = " or ".join(f"kind={kind}" for kind in kinds)
        raise ParseError(f"{args.command} needs {wanted} input, got kind={ef.kind}")
    return ef, input_digest(data)


def _run_check_symplectic(args):
    ef, digest = _read(args, "poisson")
    rec = check_symplectic(PoissonContext(ef.ring, ef.n), ef.endo())
    payload = {"ring": str(ef.ring), "n": ef.n, **record_fields(rec), "det": rec.det.to_text()}
    payload["assertion_violated"] = rec.assertion_violated
    return (1 if rec.assertion_violated else 0), payload, digest


def _run_check_weyl_endo(args):
    ef, digest = _read(args, "weyl")
    ok, witness = verify_endo_relations(WeylAlgebra(ef.ring, ef.n), list(ef.images))
    payload = {
        "ring": str(ef.ring),
        "n": ef.n,
        "relations_hold": ok,
        "witness": None if ok else {"i": witness[0], "j": witness[1], "commutator": witness[2].to_text()},
        "degree": max((im.degree() for im in ef.images if not im.is_zero()), default=None),
    }
    return 0, payload, digest


def _run_reduce(args):
    ef, digest = _read(args, "weyl")
    endo = ef.endo()
    sym = check_center_symplectic(endo)  # first, so that the budget refusal comes first
    deg_endo, deg_center = endo.degree(), sym.center.endo.degree()
    payload = {
        "ring": str(ef.ring),
        "n": ef.n,
        "center_images": [im.to_text() for im in sym.center.endo.images],
        "degree": {
            "endomorphism": deg_endo,
            "center": deg_center,
            "equal": deg_endo == deg_center,
        },
        "center_symplectic": sym.symplectic,
        "falsification": deg_endo != deg_center or not sym.symplectic,
    }
    return (1 if payload["falsification"] else 0), payload, digest


def _run_invert(args):
    weyl = args.command == "invert-weyl"
    ef, digest = _read(args, "weyl") if weyl else _read(args, "poly", "poisson")
    endo = ef.endo()
    if args.degree_cap is not None:
        _check_degree_cap(args.degree_cap, ef.nvars)
    decision = (decide_weyl_automorphism if weyl else decide_poly_automorphism)(endo, degree_cap=args.degree_cap)
    inverse = decision.inverse
    payload = {
        "ring": str(ef.ring),
        "status": "found" if inverse is not None else "none",
        "degree_bound": decision.certified_bound,
        "searched_degree": decision.searched_degree,
        "found_degree": decision.found_degree,
        "certified_non_automorphism": decision.status == "no",
        "inverse_images": None if inverse is None else [im.to_text() for im in inverse.images],
    }
    return 0, payload, digest


def _run_check_instance(args):
    ef, digest = _read(args, {"JC": "poly", "PC": "poisson", "DC": "weyl"}[args.tag[1:]])
    verdict = check_instance(args.tag, ef.endo())
    payload = verdict.to_payload()
    code = 1 if verdict.biconditional_holds is False else 0
    return code, payload, digest


def _run_center_slice(args):
    ring = ring_from_text(args.ring)
    algebra = WeylAlgebra(ring, args.n)
    # one commutator per basis monomial and generator, each term keyed by 2n exponents
    work = _check_degree_cap(args.degree_cap, 2 * args.n) * (2 * args.n) ** 2
    if work > 16 * MONOMIAL_BUDGET:
        raise ValueError(f"--n {args.n} needs {work} commutator exponents, over the budget of {16 * MONOMIAL_BUDGET}")
    rec = center_slice_check(algebra, args.degree_cap)
    payload = {"ring": str(ring), "n": args.n, **record_fields(rec)}
    digest = input_digest(f"center-slice ring={ring} n={args.n} D={args.degree_cap}")
    return (0 if rec.match else 1), payload, digest


def _run_kraus(args):
    rec = kraus_check(args.p_max)
    ok = rec.z_irreducible and rec.all_reducible
    return (0 if ok else 1), rec.to_payload(), input_digest(f"kraus p_max={args.p_max}")


def _run_suite(args):
    rec = counterexample_suite(args.p_max)
    return (0 if rec.all_expected else 1), rec.to_payload(), input_digest(
        f"suite p_max={args.p_max}"
    )


def _run_probe_chain(args):
    ef, digest = _read(args, "weyl")
    rec = chain_probe(ef.endo())
    return (0 if rec.consistent else 1), rec.to_payload(), digest


_HANDLERS = {
    "check-symplectic": _run_check_symplectic,
    "check-weyl-endo": _run_check_weyl_endo,
    "reduce": _run_reduce,
    "invert": _run_invert,
    "invert-weyl": _run_invert,
    "check-instance": _run_check_instance,
    "center-slice": _run_center_slice,
    "kraus": _run_kraus,
    "suite": _run_suite,
    "probe-chain": _run_probe_chain,
}


# characters of a payload value a summary line shows; the report keeps the whole value
SUMMARY_WIDTH = 200


def _summary_lines(command: str, payload: dict) -> list[str]:
    keep = {
        "symplectic", "n_factorial_unit", "det", "det_is_one", "assertion_violated",
        "relations_hold", "witness", "degree", "center_images", "center_symplectic",
        "falsification", "status", "degree_bound", "searched_degree", "found_degree",
        "certified_non_automorphism", "automorphism", "hypothesis_holds",
        "biconditional_holds", "match", "dimension_found", "dimension_expected",
        "z_irreducible", "all_reducible", "all_expected", "consistent", "events",
    }
    lines = [f"{command}:"]
    for key, value in payload.items():
        if key in keep:
            text = str(value)
            if len(text) > SUMMARY_WIDTH:
                text = f"{text[:SUMMARY_WIDTH]}... ({len(text)} characters)"
            lines.append(f"  {key} = {text}")
    return lines


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, digest = _HANDLERS[args.command](args)
        text = dump_report(build_report(args.command, digest, payload, args.seed))
        if args.json:
            Path(args.json).write_text(text, encoding="utf-8")
    except (ValueError, NonUnitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an internal failure must never read as a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for line in _summary_lines(args.command, payload):
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
