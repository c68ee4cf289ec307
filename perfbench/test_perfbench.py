"""Tests of the benchmark itself: input recipes, checks, span arithmetic.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from canonalg.conjectures import AutomorphismDecision, decide_weyl_automorphism  # noqa: E402
from canonalg.reduction import induced_center_endo  # noqa: E402
from canonalg.rings import GF  # noqa: E402
from canonalg.weyl import WeylAlgebra, WeylEndo, generate_central_perturbation  # noqa: E402


def test_acceptance_recipe_matches_the_test_suite_corpus_and_its_verdicts():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from util import weyl_corpus
    finally:
        sys.path.remove(str(ROOT / "tests"))
    ours = workloads.acceptance_corpus()
    assert [endo for _, endo in ours] == weyl_corpus()
    assert len(ours) == 117
    statuses = [decide_weyl_automorphism(endo).status for _, endo in ours]
    assert (statuses.count("yes"), statuses.count("no"), statuses.count("unknown")) == (82, 15, 20)


def test_roadmap_seed5_perturbation_is_a_certified_no_at_bound_8():
    endo = generate_central_perturbation(WeylAlgebra(GF(2), 2), workloads.REACH_GENERATOR_SEED)
    decision = decide_weyl_automorphism(endo)
    assert (decision.status, decision.certified_bound, decision.searched_degree) == ("no", 8, 8)
    assert workloads.degree2_perturbations(1)[0][0] == workloads.REACH_GENERATOR_SEED


def test_point_certificate_agrees_with_the_center_reduction():
    for _, endo in workloads.degree2_perturbations(workloads.PANEL_SIZE):
        center = induced_center_endo(endo).endo
        points = itertools.product(range(2), repeat=4)
        images = {tuple(im.evaluate(list(pt)) for im in center.images) for pt in points}
        assert workloads.center_points_bijective(endo) is (len(images) == 16)


def test_point_certificate_accepts_automorphisms_and_skips_other_shapes():
    algebra = WeylAlgebra(GF(2), 2)
    assert workloads.center_points_bijective(WeylEndo.identity(algebra)) is True
    y1, y2, y3, y4 = algebra.generators()
    shear = WeylEndo(algebra, [y1, y2, y3 + y1 * y1, y4])  # Y3 -> Y3 + Y1^2 is invertible
    assert workloads.center_points_bijective(shear) is True
    frobenius = WeylEndo(algebra, [y1 + y1 * y1, y2, y3, y4])
    assert workloads.center_points_bijective(frobenius) is False
    swap = WeylEndo(algebra, [y3, y2, y1, y4])
    assert workloads.center_points_bijective(swap) is None


def test_self_times_on_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_self_time_and_caps_per_search_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    solve = tracer.wrap("linalg.solve_many", lambda: None)

    def search_body():
        solve()
        solve()

    search = tracer.wrap("weyl.inverse_search", search_body)
    tracer.operation(0, search)
    tracer.operation(1, solve)
    table = tracer.layer_table()
    # clock reads: op 0..7 | search 1..6 | solves 2..3 and 4..5 | op 8..11 | solve 9..10
    assert table["weyl.inverse_search"] == {"calls": 1, "self_s": 3.0}
    assert table["linalg.solve_many"] == {"calls": 3, "self_s": 3.0}
    assert table[spans.OP_SPAN] == {"calls": 2, "self_s": 2.0 + 2.0}
    assert sum(row["self_s"] for row in table.values()) == 7.0 + 3.0
    assert tracer.caps_per_search() == 2.0
    assert set(tracer.op) == {0, 1}


def test_tracer_installs_where_names_are_looked_up_and_restores():
    import canonalg.conjectures as conj
    import canonalg.linalg as linalg
    import canonalg.weyl as weyl

    original = linalg.solve_many
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert weyl.solve_many is linalg.solve_many is conj.solve_many is not original
        assert decide_weyl_automorphism is not conj.decide_weyl_automorphism
        endo = WeylEndo.identity(WeylAlgebra(GF(3), 1))
        tracer.operation(0, lambda: conj.decide_weyl_automorphism(endo))
    finally:
        tracer.uninstall()
    assert weyl.solve_many is original and conj.solve_many is original
    table = tracer.layer_table()
    assert table["linalg.solve_many"]["calls"] == 1
    assert table["linalg.solve_many"]["cells"] > 0
    assert table["weyl.WeylElement.__mul__"]["term_pairs"] >= table["weyl.WeylElement.__mul__"]["calls"]


def test_reference_seconds_drop_bursts_and_divide_by_nearby_slowness():
    sampler = speed.Sampler()
    sampler.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    sampler.ends = [t + 0.1 for t in sampler.starts]
    sampler.factors = [1.0, 2.0, 2.0, 2.0, 9.0]
    # three bursts inside; the nearest burst on either side counts however far
    assert sampler.ref_seconds(0.5, 3.5) == pytest.approx((3.0 - 0.3) / (16.0 / 5))
    # no burst inside or within the window: the two around it
    assert sampler.ref_seconds(1.5, 1.6) == pytest.approx(0.1 / 2.0)


def test_sampler_ticks_while_work_runs_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.starts) >= 4  # entry, exit and ticks in between
    assert 0 < sampler.ref_seconds(t0, t1) < 10 * (t1 - t0)


def _injected(decision):
    endo = generate_central_perturbation(WeylAlgebra(GF(2), 2), workloads.REACH_GENERATOR_SEED)
    return workloads.Op(
        label="injected",
        run=lambda: decision,
        check=lambda d: workloads._decision_checks(endo, d),
        verdict=lambda d: d.status,
        fingerprint=lambda d: d.status,
    )


@pytest.mark.parametrize(
    "decision",
    [
        AutomorphismDecision("yes", 1, 8, 8, WeylEndo.identity(WeylAlgebra(GF(2), 2))),
        AutomorphismDecision("no", None, 8, 7),
        AutomorphismDecision("unknown", None, 8, 4),
    ],
)
def test_a_wrong_verdict_is_counted_as_failed(decision):
    ops = [_injected(decision), _injected(AutomorphismDecision("no", None, 8, 8))]
    passes, latencies, walls, results = run.run_passes(ops, 0)
    failed, problems, verdicts, _ = run.check_results(ops, results)
    assert (passes, failed, len(latencies), len(walls)) == (1, 1, 2, 2)
    assert problems and problems[0].startswith("injected")


def test_results_that_change_between_passes_are_failures():
    op = workloads.Op("flaky", None, lambda r: [], lambda r: r, lambda r: r)
    failed, problems, _, _ = run.check_results([op], [[("no", None), ("yes", None)]])
    assert failed == 1 and "differs" in problems[0]


def test_cli_mix_pass_is_correct_and_deterministic(tmp_path):
    built = workloads.build("cli_mix", 3, tmp_path)
    assert {op.label.split()[0] for op in built.ops} == {
        "check-symplectic", "check-weyl-endo", "reduce", "invert", "invert-weyl",
        "check-instance", "center-slice", "kraus", "suite", "probe-chain",
    }
    assert str(tmp_path) not in "".join(op.label for op in built.ops)
    results = [[] for _ in built.ops]
    for _ in range(2):
        for k, op in enumerate(built.ops):
            results[k].append((op.collect(op.run()), None))
    failed, problems, verdicts, _ = run.check_results(built.ops, results)
    assert failed == 0, problems
    assert verdicts.count("no") >= 2  # the two naive counterexamples


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.build("corpus_probe", 7, tmp_path)
    b = workloads.build("corpus_probe", 7, tmp_path)
    c = workloads.build("corpus_probe", 8, tmp_path)
    assert a.inputs_digest == b.inputs_digest != c.inputs_digest
    assert len(a.ops) == 4 * 117


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
