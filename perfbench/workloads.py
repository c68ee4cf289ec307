"""Inputs, operations and correctness checks of the three benchmark workloads.

``build(name, seed, workdir)`` imports canonalg, generates the workload's
inputs from the seed and returns a :class:`Workload`: a list of operations
that one pass runs once each, in list order.  The program only ever sees the
generated inputs.  Every operation carries its own correctness check, which
the runner applies after the timed passes, and a verdict for
``decided_ratio``.

The workloads, and why they were chosen, are described in ``README.md``.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import importlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("weyl_deep", "corpus_probe", "cli_mix")

# weyl_deep decides the first PANEL_SIZE degree-2 central perturbations of
# the n=2 Weyl algebra over F2, by generator seed.  A fixed panel keeps the
# work of a pass independent of the seed: the cost of one such map ranges
# over 0.3-3.6 s, even between relabelings of one map, so a seeded draw of
# the few maps that fit in a run would spread its throughput by about 25%.
PANEL_SIZE = 6

# corpus_probe draws this many maps for each member of the acceptance corpus,
# always from CORPUS_SEED; the workload seed only orders them.  Even drawn
# stratum by stratum, a few heavy maps carry most of a pass (the slowest tenth
# takes about 60% of its time), so the work of seeded draws differed by up to
# 15% between seeds, too much for the throughput bound.
CORPUS_SCALE = 4
CORPUS_SEED = 1

# cli_mix draws the maps of its input files from CLI_MAPS_SEED for the same
# reason: single commands on seeded maps ranged from 9 to 52 ms (NPC over Q)
# and from 44 to 178 ms (a bounded poly inversion over Q), which moved the
# throughput of a pass by 15%.  The workload seed orders the commands and is
# passed to each as ``--seed``, which the reports echo.
CLI_MAPS_SEED = 1

# ROADMAP's reference instance: generator seed 5, a certified "no" at bound 8.
REACH_GENERATOR_SEED = 5


@dataclass
class Op:
    """One operation: ``run`` is timed; ``collect`` and ``check`` are not."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    verdict: Callable[[object], str | None]
    fingerprint: Callable[[object], str]
    collect: Callable[[object], object] = lambda result: result


@dataclass
class Workload:
    ops: list
    inputs_digest: str


def build(name: str, seed: int, workdir: Path) -> Workload:
    return {"weyl_deep": weyl_deep, "corpus_probe": corpus_probe, "cli_mix": cli_mix}[name](
        seed, workdir
    )


def _digest(labels: list) -> str:
    return hashlib.sha256("\n".join(labels).encode("utf-8")).hexdigest()


def _endo_text(endo) -> str:
    return f"{endo.algebra.ring} n={endo.algebra.n}: " + " | ".join(
        im.to_text() for im in endo.images
    )


# -- an independent non-invertibility certificate -----------------------------------


def center_points_bijective(endo) -> bool | None:
    """Whether the center restriction of a central perturbation permutes F_p^(2n).

    Applies to maps Y_i -> Y_i + z_i with every z_i central and every term of
    z_i a monomial whose exponents are all divisible by p; returns None for
    any other map.  For such a map (Y_i + z_i)^p = Y_i^p + z_i^p, so on the
    center coordinates (X_i = Y_i^p for the derivation letters, X_(n+i) =
    x_i^p) it acts as X_i -> X_i + sum c * X^(d, g) over the terms c x^g d^d
    of z_i.  An automorphism restricts to an automorphism of the center,
    which permutes the F_p-points, so False proves "not an automorphism".
    This uses none of canonalg's reduction, polynomial or search code.
    """
    alg = endo.algebra
    p, n = alg.ring.characteristic(), alg.n
    if p == 0:
        return None
    shifts = []
    for i, im in enumerate(endo.images):
        own = ((0,) * n, tuple(1 if k == i else 0 for k in range(n))) if i < n else (
            tuple(1 if k == i - n else 0 for k in range(n)),
            (0,) * n,
        )
        if im.terms.get(own) != 1:
            return None
        extra = []
        for (g, d), c in im.terms.items():
            if (g, d) == own:
                continue
            if any(e % p for e in g + d):
                return None
            extra.append((tuple(d) + tuple(g), c))
        shifts.append(extra)
    images = set()
    for point in itertools.product(range(p), repeat=2 * n):
        image = []
        for i, extra in enumerate(shifts):
            v = point[i]
            for exps, c in extra:
                term = c
                for a, e in zip(point, exps):
                    term *= a**e
                v += term
            image.append(v % p)
        images.add(tuple(image))
    return len(images) == p ** (2 * n)


# -- weyl_deep ---------------------------------------------------------------------------


def degree2_perturbations(count: int) -> list:
    """(generator seed, map) for the first ``count`` degree-2 central
    perturbations of the n=2 Weyl algebra over F2, by generator seed."""
    weyl = importlib.import_module("canonalg.weyl")
    rings = importlib.import_module("canonalg.rings")
    algebra = weyl.WeylAlgebra(rings.GF(2), 2)
    out = []
    for s in itertools.count():
        endo = weyl.generate_central_perturbation(algebra, s)
        if endo.degree() == 2:
            out.append((s, endo))
            if len(out) == count:
                return out


def _decision_checks(endo, decision) -> list:
    problems = []
    if decision.status == "yes":
        inv = decision.inverse
        if inv is None or not endo.compose(inv).is_identity() or not inv.compose(endo).is_identity():
            problems.append("'yes' inverse does not compose to the identity both ways")
    elif decision.status == "no":
        if decision.searched_degree < decision.certified_bound:
            problems.append(
                f"'no' searched only to {decision.searched_degree} < bound {decision.certified_bound}"
            )
    else:
        problems.append(f"'unknown' although bound {decision.certified_bound} is searchable")
    if center_points_bijective(endo) is False and decision.status == "yes":
        problems.append("'yes' although the center restriction is not bijective on points")
    return problems


def weyl_deep(seed: int, workdir: Path) -> Workload:
    conj = importlib.import_module("canonalg.conjectures")
    panel = degree2_perturbations(PANEL_SIZE)
    random.Random(seed).shuffle(panel)
    ops = []
    for gen_seed, endo in panel:
        ops.append(
            Op(
                label=f"decide_weyl_automorphism generator_seed={gen_seed} {_endo_text(endo)}",
                run=lambda endo=endo: conj.decide_weyl_automorphism(endo),
                check=lambda d, endo=endo: _decision_checks(endo, d),
                verdict=lambda d: d.status,
                fingerprint=lambda d: f"{d.status},{d.found_degree},{d.searched_degree}",
            )
        )
    return Workload(ops, _digest([op.label for op in ops]))


# -- corpus_probe ----------------------------------------------------------------------


def acceptance_corpus() -> list:
    """(kind, map) pairs of the 117-member corpus of ``tests/util.weyl_corpus``.

    For p in (2, 3, 5) and n in (1, 2): twelve generated automorphisms, six
    central perturbations and, for p = 2 and for p = 3 with n = 1, the
    compositions of the first three of each.
    """
    weyl = importlib.import_module("canonalg.weyl")
    rings = importlib.import_module("canonalg.rings")
    corpus = []
    for p in (2, 3, 5):
        for n in (1, 2):
            algebra = weyl.WeylAlgebra(rings.GF(p), n)
            max_degree = 3 if n == 1 else 2
            autos = [
                weyl.generate_weyl_automorphism(
                    algebra, seed=100 * p + 10 * n + s, steps=3, max_degree=max_degree
                )
                for s in range(12)
            ]
            perts = [
                weyl.generate_central_perturbation(algebra, seed=500 + 100 * p + 10 * n + s)
                for s in range(6)
            ]
            corpus.extend(("auto", e) for e in autos)
            corpus.extend(("pert", e) for e in perts)
            if p == 2 or (p == 3 and n == 1):
                corpus.extend(("comp", x.compose(y)) for x, y in zip(autos[:3], perts[:3]))
    return corpus


def seeded_corpus(seed: int) -> list:
    """CORPUS_SCALE seeded members for every member of the acceptance corpus.

    A stratum is (kind, p, n, degree).  Maps are drawn class by class and
    kept while their stratum holds fewer than CORPUS_SCALE times its count in
    the acceptance corpus.  The cost of ``chain_probe`` varies several-fold
    within a stratum and far more between strata, so fixing the mix of
    strata is what keeps the work of a pass steady across seeds; a plain
    draw of 294 maps spread it by about 20%.  The acceptance corpus has no
    degree-2 perturbation over F2 with n = 2 (those take seconds each and
    are weyl_deep's), so neither has this one.
    """
    weyl = importlib.import_module("canonalg.weyl")
    rings = importlib.import_module("canonalg.rings")
    quotas = collections.defaultdict(collections.Counter)
    for kind, endo in acceptance_corpus():
        quotas[(kind, endo.algebra.ring.p, endo.algebra.n)][endo.degree()] += CORPUS_SCALE
    rng = random.Random(seed)
    corpus = []
    for (kind, p, n), wanted in sorted(quotas.items()):
        algebra = weyl.WeylAlgebra(rings.GF(p), n)

        def auto():
            return weyl.generate_weyl_automorphism(
                algebra, seed=rng.randrange(10**9), steps=3, max_degree=3 if n == 1 else 2
            )

        def pert():
            return weyl.generate_central_perturbation(algebra, rng.randrange(10**9))

        draw = {"auto": auto, "pert": pert, "comp": lambda: auto().compose(pert())}[kind]
        for _ in range(1000 * sum(wanted.values())):
            endo = draw()
            if wanted[endo.degree()] > 0:
                wanted[endo.degree()] -= 1
                corpus.append((kind, endo))
                if not any(wanted.values()):
                    break
        else:
            raise RuntimeError(f"could not draw the {kind} maps over F{p} with n = {n}")
    return corpus


def _probe_checks(kind: str, rep) -> list:
    problems = []
    if not rep.consistent:
        problems.append(f"chain_probe inconsistent: {rep.events}")
    if not rep.center_symplectic:
        problems.append("center restriction not symplectic")
    if kind == "auto" and "no" in (rep.weyl_status, rep.center_status):
        problems.append(
            f"generated automorphism judged 'no' (weyl {rep.weyl_status}, center {rep.center_status})"
        )
    return problems


def corpus_probe(seed: int, workdir: Path) -> Workload:
    conj = importlib.import_module("canonalg.conjectures")
    members = seeded_corpus(CORPUS_SEED)
    random.Random(seed).shuffle(members)
    ops = []
    for kind, endo in members:
        ops.append(
            Op(
                label=f"chain_probe {kind} {_endo_text(endo)}",
                run=lambda endo=endo: conj.chain_probe(endo),
                check=lambda rep, kind=kind: _probe_checks(kind, rep),
                verdict=lambda rep: rep.weyl_status,
                fingerprint=lambda rep: f"{rep.weyl_status},{rep.center_status},{rep.consistent}",
            )
        )
    return Workload(ops, _digest([op.label for op in ops]))


# -- cli_mix ---------------------------------------------------------------------------

KRAUS_P_MAX = 6000  # over half of a pass at this commit


@dataclass
class CliCase:
    argv: list
    expected_code: int
    payload_ok: Callable[[dict], bool]


def _write_endo(workdir: Path, name: str, ring, kind: str, n, nvars: int, images) -> str:
    parsing = importlib.import_module("canonalg.parsing")
    path = workdir / f"{name}.txt"
    path.write_text(
        parsing.print_endo_file(parsing.EndoFile(ring, kind, n, nvars, tuple(images))),
        encoding="utf-8",
    )
    return str(path)


def _random_poly_map(rng: random.Random, ring, m: int, degree: int):
    """X_i -> X_i + (1 or 2 random monomials of degree 2..degree)."""
    poly = importlib.import_module("canonalg.poly")
    images = []
    for i in range(1, m + 1):
        im = poly.Poly.variable(ring, m, i)
        for _ in range(rng.randint(1, 2)):
            exps = [0] * m
            for _ in range(rng.randint(2, degree)):
                exps[rng.randrange(m)] += 1
            c = rng.randint(1, ring.p - 1) if ring.kind == "Fp" else ring.of_int(rng.choice([1, -1, 2, 3]))
            im = im + poly.Poly.monomial(ring, m, exps, c)
        images.append(im)
    return images


def _not_no(key):
    return lambda payload: payload.get(key) != "no"


def cli_cases(seed: int, workdir: Path) -> list:
    """The commands of one cli_mix pass, with their expected exit codes."""
    rings = importlib.import_module("canonalg.rings")
    poisson = importlib.import_module("canonalg.poisson")
    weyl = importlib.import_module("canonalg.weyl")
    conj = importlib.import_module("canonalg.conjectures")
    rng = random.Random(CLI_MAPS_SEED)
    QQ, GF = rings.QQ, rings.GF
    cases = []

    def add(argv, code, ok=lambda payload: True):
        cases.append(CliCase(argv, code, ok))

    # Poisson maps over Q, F3 and F5: symplectic test, CPC and inversion.
    for ring in (QQ, GF(3), GF(5)):
        ctx = poisson.PoissonContext(ring, 1)
        endo = poisson.generate_symplectomorphism(ctx, seed=rng.randrange(10**9), steps=5, max_degree=4)
        f = _write_endo(workdir, f"poisson-{ring}", ring, "poisson", 1, 2, endo.images)
        add(["check-symplectic", "--input", f], 0, lambda pl: pl["symplectic"] and not pl["assertion_violated"])
        add(["check-instance", "--tag", "CPC", "--input", f], 0, _not_no("automorphism"))
        add(["invert", "--input", f], 0, lambda pl: not pl["certified_non_automorphism"])
    ctx = poisson.PoissonContext(QQ, 2)
    endo = poisson.generate_symplectomorphism(ctx, seed=rng.randrange(10**9), steps=5, max_degree=2)
    f = _write_endo(workdir, "poisson-Q-n2", QQ, "poisson", 2, 4, endo.images)
    add(["check-symplectic", "--input", f], 0, lambda pl: pl["symplectic"] and not pl["assertion_violated"])
    add(["check-instance", "--tag", "NPC", "--input", f], 0, _not_no("automorphism"))

    # Poly maps with m <= 2: bounded inversion of random maps (whose exit
    # code is 0 whatever the outcome), CJC/NJC on automorphisms over F3, F5.
    for ring, m, cap in ((QQ, 2, 6), (QQ, 1, 8), (GF(3), 2, 6)):
        f = _write_endo(workdir, f"poly-{ring}-m{m}", ring, "poly", None, m, _random_poly_map(rng, ring, m, 3))
        add(["invert", "--input", f, "--degree-cap", str(cap)], 0)
    for ring in (GF(3), GF(5)):
        ctx = poisson.PoissonContext(ring, 1)
        endo = poisson.generate_symplectomorphism(ctx, seed=rng.randrange(10**9), steps=5, max_degree=3)
        f = _write_endo(workdir, f"poly-{ring}-m2-auto", ring, "poly", None, 2, endo.images)
        add(["check-instance", "--tag", "CJC", "--input", f], 0, _not_no("automorphism"))
        add(["check-instance", "--tag", "NJC", "--input", f], 0, _not_no("automorphism"))

    # Weyl maps with n <= 2.
    for ring, n in ((GF(2), 2), (GF(3), 1), (GF(5), 1), (QQ, 1)):
        algebra = weyl.WeylAlgebra(ring, n)
        endo = weyl.generate_weyl_automorphism(
            algebra, seed=rng.randrange(10**9), steps=4, max_degree=2 if n == 2 else 3
        )
        f = _write_endo(workdir, f"weyl-{ring}-n{n}", ring, "weyl", n, 2 * n, endo.images)
        add(["check-weyl-endo", "--input", f], 0, lambda pl: pl["relations_hold"])
        add(["invert-weyl", "--input", f], 0, lambda pl: not pl["certified_non_automorphism"])
        add(["check-instance", "--tag", "CDC", "--input", f], 0, _not_no("automorphism"))
        if ring.kind == "Fp":
            add(["reduce", "--input", f], 0, lambda pl: not pl["falsification"])
            add(["probe-chain", "--input", f], 0, lambda pl: pl["consistent"] and pl["weyl_status"] != "no")
    for ring, n in ((GF(3), 1), (GF(2), 2)):
        endo = weyl.generate_central_perturbation(weyl.WeylAlgebra(ring, n), rng.randrange(10**9))
        while (ring.p, n, endo.degree()) == (2, 2, 2):  # seconds each: weyl_deep's maps
            endo = weyl.generate_central_perturbation(weyl.WeylAlgebra(ring, n), rng.randrange(10**9))
        f = _write_endo(workdir, f"pert-{ring}-n{n}", ring, "weyl", n, 2 * n, endo.images)
        add(["reduce", "--input", f], 0, lambda pl: not pl["falsification"])
        add(["probe-chain", "--input", f], 0, lambda pl: pl["consistent"])

    # The naive-conjecture counterexamples: each must be reported (exit 1).
    p = rng.choice((2, 3, 5))
    f = _write_endo(workdir, "njc-deficit", GF(p), "poly", None, 1, conj.frobenius_deficit_poly(GF(p), 1).images)
    add(["check-instance", "--tag", "NJC", "--input", f], 1, lambda pl: pl["automorphism"] == "no")
    algebra = weyl.WeylAlgebra(GF(p), 1)
    f = _write_endo(workdir, "ndc-deficit", GF(p), "weyl", 1, 2, conj.frobenius_deficit_weyl(algebra).images)
    add(["check-instance", "--tag", "NDC", "--input", f], 1, lambda pl: pl["automorphism"] == "no")

    # Commands without input files.
    add(["center-slice", "--ring", "F2", "--n", "2", "--degree-cap", "6"], 0, lambda pl: pl["match"])
    add(["center-slice", "--ring", "F3", "--n", "1", "--degree-cap", "9"], 0, lambda pl: pl["match"])
    add(["kraus", "--p-max", str(KRAUS_P_MAX)], 0, lambda pl: pl["z_irreducible"] and pl["all_reducible"])
    add(["suite", "--p-max", "1000"], 0, lambda pl: pl["all_expected"])

    # Ill-formed input must exit 2 without a report.
    bad = workdir / "ill-formed.txt"
    bad.write_text("ring=F4 kind=weyl n=1\nY1 -> Y1\nY2 -> Y2\n", encoding="utf-8")
    add(["reduce", "--input", str(bad)], 2)

    for k, case in enumerate(cases):
        case.argv = case.argv + ["--seed", str(seed), "--json", str(workdir / f"report-{k:02d}.json")]
    random.Random(seed).shuffle(cases)
    return cases


def _cli_verdict(command: str, payload: dict | None) -> str | None:
    if payload is None:
        return None
    if command in ("invert", "invert-weyl"):
        if payload["status"] == "found":
            return "yes"
        return "no" if payload["certified_non_automorphism"] else "unknown"
    if command == "check-instance":
        return payload["automorphism"]
    if command == "probe-chain":
        return payload["weyl_status"]
    return None


def cli_mix(seed: int, workdir: Path) -> Workload:
    cli = importlib.import_module("canonalg.cli")
    report = importlib.import_module("canonalg.report")
    workdir.mkdir(parents=True, exist_ok=True)
    cases = cli_cases(seed, workdir)
    ops = []
    for case in cases:
        json_path = Path(case.argv[case.argv.index("--json") + 1])

        def run(argv=case.argv, json_path=json_path):
            json_path.unlink(missing_ok=True)
            # print() writes nothing while sys.stdout (or sys.stderr) is None
            with contextlib.redirect_stdout(None), contextlib.redirect_stderr(None):
                return cli.main(argv)

        def collect(code, json_path=json_path):
            data = json_path.read_bytes() if json_path.exists() else None
            return code, data

        def check(result, case=case):
            code, data = result
            problems = []
            if code != case.expected_code:
                problems.append(f"exit {code}, expected {case.expected_code}")
            if case.expected_code == 2:
                if data is not None:
                    problems.append("report written for rejected input")
                return problems
            if data is None:
                return problems + ["no report written"]
            obj = json.loads(data)
            try:
                report.validate_report(obj)
            except ValueError as exc:
                problems.append(f"report fails the schema: {exc}")
            if not case.payload_ok(obj["payload"]):
                problems.append("payload contradicts the expected outcome")
            return problems

        def verdict(result, command=case.argv[0]):
            code, data = result
            return _cli_verdict(command, json.loads(data)["payload"] if data else None)

        ops.append(
            Op(
                label=_cli_label(case.argv),
                run=run,
                check=check,
                verdict=verdict,
                fingerprint=lambda result: f"{result[0]}:"
                + (hashlib.sha256(result[1]).hexdigest() if result[1] else "-"),
                collect=collect,
            )
        )
    return Workload(ops, _digest([op.label for op in ops]))


def _cli_label(argv: list) -> str:
    """The command without its file paths, then the input file's content."""
    words = [Path(w).name if prev in ("--input", "--json") else w for prev, w in zip([""] + argv, argv)]
    if "--input" not in argv:
        return " ".join(words)
    return " ".join(words) + "\n" + Path(argv[argv.index("--input") + 1]).read_text(encoding="utf-8")
