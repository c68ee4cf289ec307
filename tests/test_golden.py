"""Golden outputs: CLI JSON reports and generator results, compared byte for byte.

``tests/golden/`` holds the endomorphism files under ``inputs/``, one
``<case>.json`` report per CLI case below and ``generators.txt`` with the
``repr`` of seeded generator outputs.  The files pin what the code prints, so
a refactor that should not change behaviour must leave them as they are.
After an intended change of output, regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.  ``summary.txt`` holds what ``main()`` prints for each
case, in sorted order, each case's lines after a ``# <case>`` line.
``GENERATED_MAPS_DIGEST`` pins the endo file texts of the generated maps;
its test's failure message shows the new digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from canonalg import cli
from canonalg.cli import main
from canonalg.parsing import EndoFile, print_endo_file
from canonalg.poisson import PoissonContext, generate_symplectomorphism
from canonalg.report import validate_report
from canonalg.rings import GF, QQ
from canonalg.weyl import WeylAlgebra, generate_central_perturbation, generate_weyl_automorphism

from util import weyl_corpus

GOLDEN = Path(__file__).parent / "golden"


def _input(name: str) -> str:
    return str(GOLDEN / "inputs" / f"{name}.endo")


# case name -> (argv without --json, expected exit code)
CASES = {
    "check-symplectic-Q": (["check-symplectic", "--input", _input("poisson-Q")], 0),
    "check-symplectic-F5": (["check-symplectic", "--input", _input("poisson-F5"), "--seed", "7"], 0),
    "check-weyl-endo-F3": (["check-weyl-endo", "--input", _input("weyl-F3")], 0),
    "check-weyl-endo-bad-Q": (["check-weyl-endo", "--input", _input("weyl-bad-Q")], 0),
    "reduce-F3": (["reduce", "--input", _input("weyl-F3")], 0),
    "reduce-F5-n2": (["reduce", "--input", _input("weyl-F5-n2")], 0),
    "reduce-pert-F5": (["reduce", "--input", _input("weyl-pert-F5")], 0),
    "invert-poisson-Q": (["invert", "--input", _input("poisson-Q")], 0),
    "invert-poly-Q": (["invert", "--input", _input("poly-Q")], 0),
    "invert-poly-F3-cap1": (["invert", "--input", _input("poly-F3"), "--degree-cap", "1"], 0),
    "invert-deficit-F3": (["invert", "--input", _input("poly-deficit-F3")], 0),
    "invert-const-F3-cap2": (["invert", "--input", _input("poly-const-F3"), "--degree-cap", "2"], 0),
    "invert-weyl-Q": (["invert-weyl", "--input", _input("weyl-Q")], 0),
    "invert-weyl-F5-n2": (["invert-weyl", "--input", _input("weyl-F5-n2")], 0),
    "invert-weyl-F5-n2-cap2": (["invert-weyl", "--input", _input("weyl-F5-n2"), "--degree-cap", "2"], 0),
    "invert-weyl-pert-F5": (["invert-weyl", "--input", _input("weyl-pert-F5")], 0),
    "invert-weyl-pert-F5-cap4": (["invert-weyl", "--input", _input("weyl-pert-F5"), "--degree-cap", "4"], 0),
    "invert-weyl-pert-F2-n2": (["invert-weyl", "--input", _input("weyl-pert-F2-n2")], 0),
    "invert-weyl-yes-F2-n2": (["invert-weyl", "--input", _input("weyl-yes-F2-n2")], 0),
    "check-instance-CJC-F3": (["check-instance", "--tag", "CJC", "--input", _input("poly-F3")], 0),
    "check-instance-CJC-cubic-F3": (["check-instance", "--tag", "CJC", "--input", _input("poly-cubic-F3")], 0),
    "check-instance-CJC-deficit-F3": (
        ["check-instance", "--tag", "CJC", "--input", _input("poly-deficit-F3")],
        0,
    ),
    "check-instance-NJC-deficit-F3": (
        ["check-instance", "--tag", "NJC", "--input", _input("poly-deficit-F3")],
        1,
    ),
    "check-instance-CPC-F5": (["check-instance", "--tag", "CPC", "--input", _input("poisson-F5")], 0),
    "check-instance-NPC-Q": (["check-instance", "--tag", "NPC", "--input", _input("poisson-Q")], 0),
    "check-instance-CDC-F3": (["check-instance", "--tag", "CDC", "--input", _input("weyl-F3")], 0),
    "check-instance-CDC-Q": (["check-instance", "--tag", "CDC", "--input", _input("weyl-Q")], 0),
    "check-instance-NDC-deficit-F3": (
        ["check-instance", "--tag", "NDC", "--input", _input("weyl-deficit-F3")],
        1,
    ),
    "center-slice-F3": (["center-slice", "--ring", "F3", "--n", "1", "--degree-cap", "6"], 0),
    "center-slice-F2-n2": (["center-slice", "--ring", "F2", "--n", "2", "--degree-cap", "4"], 0),
    "kraus": (["kraus", "--p-max", "200"], 0),
    "suite": (["suite", "--p-max", "200", "--seed", "3"], 0),
    "probe-chain-F5-n2": (["probe-chain", "--input", _input("weyl-F5-n2")], 0),
    "probe-chain-pert-F5": (["probe-chain", "--input", _input("weyl-pert-F5")], 0),
    "probe-chain-pert-F2-n2": (["probe-chain", "--input", _input("weyl-pert-F2-n2")], 0),
}


def generator_lines() -> list[str]:
    lines = []
    for ring in (GF(2), GF(3), GF(5), QQ):
        for n in (1, 2):
            for seed in (0, 1, 2):
                endo = generate_weyl_automorphism(WeylAlgebra(ring, n), seed, steps=3, max_degree=3)
                lines.append(f"generate_weyl_automorphism {ring} n={n} seed={seed}: {endo!r}")
                endo = generate_symplectomorphism(PoissonContext(ring, n), seed, steps=3, max_degree=3)
                lines.append(f"generate_symplectomorphism {ring} n={n} seed={seed}: {endo!r}")
                if ring.characteristic():
                    endo = generate_central_perturbation(WeylAlgebra(ring, n), seed)
                    lines.append(f"generate_central_perturbation {ring} n={n} seed={seed}: {endo!r}")
    return lines


# sha256 of the endo file texts of :func:`generated_map_texts`, in order
GENERATED_MAPS_DIGEST = "028d875106bdf571fc0e6c33cc8066d07ac0a120d9a2fd78ce26d11219f2f6b8"


def generated_map_texts() -> list[str]:
    """The endo file text of every map of the acceptance corpus (117 Weyl
    maps), then of a seeded panel of symplectomorphisms over Q, F3 and F5."""
    texts = [print_endo_file(EndoFile(e.ring, "weyl", e.algebra.n, e.algebra.nvars, e.images)) for e in weyl_corpus()]
    for ring in (QQ, GF(3), GF(5)):
        for n in (1, 2):
            ctx = PoissonContext(ring, n)
            for seed in range(2000 + 10 * n, 2008 + 10 * n):
                endo = generate_symplectomorphism(ctx, seed, steps=5, max_degree=4)
                texts.append(print_endo_file(EndoFile(ring, "poisson", n, ctx.nvars, endo.images)))
    return texts


def summary_text() -> str:
    """What ``main()`` prints for every case, sorted; the summary lines show
    the payload's keys in their insertion order."""
    out = io.StringIO()
    for case in sorted(CASES):
        out.write(f"# {case}\n")
        with contextlib.redirect_stdout(out):
            main(CASES[case][0])
    return out.getvalue()


def _run(case: str, out: Path) -> int:
    argv, _ = CASES[case]
    return main(argv + ["--json", str(out)])


def _assert_golden(case: str, out: Path) -> None:
    out.unlink(missing_ok=True)
    assert _run(case, out) == CASES[case][1]
    assert out.read_bytes() == (GOLDEN / f"{case}.json").read_bytes(), case


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_report_matches_golden(case, tmp_path):
    _assert_golden(case, tmp_path / "report.json")
    validate_report(json.loads((GOLDEN / f"{case}.json").read_text("utf-8")))


# The parser is built once per process and shared by every main() call; the
# tests below pin that sharing it carries nothing from one call to the next.


def test_golden_cases_twice_in_shuffled_order(tmp_path):
    order = sorted(CASES) * 2
    random.Random(13).shuffle(order)
    for case in order:
        _assert_golden(case, tmp_path / "report.json")


def test_degree_cap_does_not_carry_over(tmp_path):
    _assert_golden("invert-poly-F3-cap1", tmp_path / "report.json")
    _assert_golden("invert-poly-Q", tmp_path / "report.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce"],
        ["no-such-command"],
        ["check-instance", "--tag", "XYZ", "--input", _input("poly-F3")],
        ["invert", "--input", _input("poly-F3"), "--degree-cap", "abc"],
        ["kraus", "--p-max", "10", "--seed", "-5"],
        ["kraus", "--p-max", "10", "--seed", str(2**64)],
        ["kraus", "--p-max", "1_0"],
        ["kraus", "--p-max", "10", "--seed", "\u0663"],
    ],
    ids=[
        "missing-input", "unknown-command", "bad-tag", "bad-degree-cap", "negative-seed", "seed-past-u64",
        "underscore-p-max", "arabic-indic-seed",
    ],
)
def test_usage_error_exits_2_and_leaves_the_parser_intact(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--json", str(out)])
    assert exc.value.code == 2
    assert "usage: canonalg" in capsys.readouterr().err
    assert not out.exists()
    _assert_golden("invert-poly-F3-cap1", out)
    _assert_golden("check-instance-CJC-F3", out)


def test_main_builds_the_parser_once(monkeypatch, tmp_path):
    builds = []  # build_parser() adds the subcommands to its parser once
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting(parser, **kwargs):
        builds.append(parser.prog)
        return add_subparsers(parser, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    cli.build_parser.cache_clear()
    try:
        for case in ("kraus", "invert-poly-F3-cap1", "kraus", "reduce-F3", "center-slice-F3"):
            _assert_golden(case, tmp_path / "report.json")
    finally:
        cli.build_parser.cache_clear()
    assert builds == ["canonalg"]


def test_parser_states_each_command_and_its_options():
    """The subcommands in order, and per subcommand each option's flags,
    ``required``, ``default``, ``type`` name and ``choices``: compared as
    structure, since argparse words ``--help`` differently across Python
    versions."""
    seed_json = [("--seed", False, 0, "u64", None), ("--json", False, None, None, None)]
    with_input = [("--input", True, None, None, None), *seed_json]
    cap = ("--degree-cap", False, None, "integer", None)
    p_max = ("--p-max", False, 1000, "integer", None)
    expected = [
        ("check-symplectic", with_input),
        ("check-weyl-endo", with_input),
        ("reduce", with_input),
        ("invert", [*with_input, cap]),
        ("invert-weyl", [*with_input, cap]),
        ("check-instance", [*with_input, ("--tag", True, None, None, ("CJC", "NJC", "CPC", "NPC", "CDC", "NDC"))]),
        (
            "center-slice",
            [
                *seed_json,
                ("--ring", True, None, None, None),
                ("--n", True, None, "integer", None),
                ("--degree-cap", True, None, "integer", None),
            ],
        ),
        ("kraus", [*seed_json, p_max]),
        ("suite", [*seed_json, p_max]),
        ("probe-chain", with_input),
    ]
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("command", True)
    got = [
        (
            name,
            [
                (
                    " ".join(a.option_strings),
                    a.required,
                    a.default,
                    None if a.type is None else a.type.__name__,
                    None if a.choices is None else tuple(a.choices),
                )
                for a in parser._actions
                if not isinstance(a, argparse._HelpAction)
            ],
        )
        for name, parser in sub.choices.items()
    ]
    assert got == expected


def test_summary_lines_match_golden():
    assert summary_text() == (GOLDEN / "summary.txt").read_text(encoding="utf-8")


def test_generators_match_golden():
    text = "\n".join(generator_lines()) + "\n"
    assert text == (GOLDEN / "generators.txt").read_text(encoding="utf-8")


def test_generated_maps_match_their_digest():
    """Each seed keeps its map: a change to map generation that moves any of
    these maps changes the digest."""
    texts = generated_map_texts()
    assert len(texts) == 117 + 48
    digest = hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()
    assert digest == GENERATED_MAPS_DIGEST, digest


if __name__ == "__main__":
    for name in CASES:
        code = _run(name, GOLDEN / f"{name}.json")
        print(f"{name}: exit {code}", file=sys.stderr)
    (GOLDEN / "generators.txt").write_text("\n".join(generator_lines()) + "\n", encoding="utf-8")
    (GOLDEN / "summary.txt").write_text(summary_text(), encoding="utf-8")
