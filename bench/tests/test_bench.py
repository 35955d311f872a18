"""Tests for the benchmark itself: generators, checker, span wrappers, result line.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import monocert  # noqa: E402
from monocert import cns, purefield  # noqa: E402
from monocert.polygon import IntPoly, principal_from_points  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    generate = WORKLOADS[name].generate
    first = generate(3, monocert)
    assert first == generate(3, monocert)
    assert first != generate(4, monocert)
    assert all(isinstance(item, tuple) for item in first)


@pytest.mark.parametrize("n,m", [(4, 17), (27, 80), (12, 10), (6, 30**5), (9, 9), (3, 2), (12, 4)])
def test_checker_accepts_real_verdicts(n, m):
    try:
        out = purefield.analyze(n, m)
    except ValueError as exc:
        out = exc
    ok, _ = check.check_verdict(monocert, n, m, out)
    assert ok


@pytest.mark.parametrize("n,m", [(4, 17), (27, 80)])
def test_checker_counts_forged_witness(n, m):
    verdict = purefield.analyze(n, m)
    assert verdict.status == "not_monogenic"
    forged = dataclasses.replace(verdict, ideal_count=verdict.irreducible_count)  # L <= N
    assert check.check_verdict(monocert, n, m, forged) == (False, False)
    inflated = dataclasses.replace(verdict, ideal_count=verdict.ideal_count + 1)  # not what the split gives
    assert check.check_verdict(monocert, n, m, inflated)[0] is False


def test_checker_counts_wrong_generator_and_wrong_rejection():
    verdict = purefield.analyze(6, 30**5)
    assert check.check_verdict(monocert, 6, 30**5, dataclasses.replace(verdict, t=verdict.t + 1))[0] is False
    assert check.check_verdict(monocert, 6, 30**5, dataclasses.replace(verdict, generator_poly=IntPoly.binomial(6, 31)))[0] is False
    assert check.check_verdict(monocert, 4, 17, ValueError("x^4 - (17) is reducible over Q"))[0] is False
    assert check.check_verdict(monocert, 4, 17, RuntimeError("boom"))[0] is False


def test_checker_counts_tampered_polygon():
    item = WORKLOADS["develop"].generate(0, monocert)[0]
    closed, direct = WORKLOADS["develop"].op(monocert, None, item)
    assert check.check_polygons((closed, direct)) == (True, True)
    (x0, y0), *rest = direct.vertices
    tampered = principal_from_points([(x0, y0 + 1)] + rest)
    assert check.check_polygons((closed, tampered)) == (False, False)


def _digits_item(coeffs, mode, z):
    basis = cns.CnsBasis(IntPoly(coeffs), mode)
    expansion = cns.encode(basis, z)
    return expansion, cns.decode(basis, expansion.digits)


def test_checker_counts_wrong_digit_string():
    coeffs, z = (2, 2, 1), (7, -3)
    exp, decoded = _digits_item(coeffs, "standard", z)
    assert exp.terminated and check.check_digits(coeffs, "standard", z, (exp, decoded)) == (True, True)
    digits = list(exp.digits)
    digits[0] ^= 1
    wrong = dataclasses.replace(exp, digits=tuple(digits))
    assert check.check_digits(coeffs, "standard", z, (wrong, decoded))[0] is False
    outside = dataclasses.replace(exp, digits=exp.digits[:-1] + (2,))
    assert check.check_digits(coeffs, "standard", z, (outside, decoded))[0] is False


def test_checker_verifies_cycle_witness():
    coeffs, z = (-6, 0, 0, 1), (-1, 0, 0)
    exp, decoded = _digits_item(coeffs, "standard", z)
    assert not exp.terminated and exp.cycle_witness is not None
    assert check.check_digits(coeffs, "standard", z, (exp, decoded)) == (True, True)
    moved = dataclasses.replace(exp, cycle_witness=tuple(c + 1 for c in exp.cycle_witness))
    assert check.check_digits(coeffs, "standard", z, (moved, decoded))[0] is False


def test_reference_digest_mismatch_is_a_failure():
    workload = WORKLOADS["campaign"]
    item = workload.generate(0, monocert)[0]
    verify = run.Verifier(workload, monocert, 0, {"campaign": {"seed": 0, "digests": {"0": "0" * 16}}})
    out = workload.op(monocert, None, item)
    verify(0, item, out)
    assert verify.failed == 1
    other_seed = run.Verifier(workload, monocert, 1, {"campaign": {"seed": 0, "digests": {"0": "0" * 16}}})
    other_seed(0, item, out)
    assert other_seed.failed == 0


def test_self_times_partition_the_op():
    rec = spans.Recorder()
    with spans.patched(rec):
        out, seconds = rec.run_op(WORKLOADS["campaign"].op, monocert, None, (12, 10))
    assert out.status == "not_monogenic"
    assert sum(rec.self_s.values()) == pytest.approx(seconds, rel=1e-9, abs=1e-9)
    assert rec.calls[spans.OP] == 1 and rec.calls["purefield.analyze"] == 1
    assert rec.calls["fppoly.count_degree_d_factors"] >= 1


def test_wrappers_reach_imported_copies_and_are_removed():
    originals = {name: getattr(getattr(monocert, name.split(".")[0]), name.split(".")[1]) for name in spans.SPANS}
    rec = spans.Recorder()
    with spans.patched(rec):
        assert monocert.ore.phi_expand.bench_span == "polygon.phi_expand"
        assert monocert.polygon.is_irreducible.bench_span == "fppoly.is_irreducible"
        assert monocert.purefield.fppoly.count_degree_d_factors.bench_span == "fppoly.count_degree_d_factors"
        assert len(spans.leftover_wrappers()) >= len(spans.SPANS)
    assert spans.leftover_wrappers() == []
    assert monocert.ore.phi_expand is originals["polygon.phi_expand"]
    with pytest.raises(RuntimeError):
        with spans.patched(spans.Recorder()):
            raise RuntimeError("interrupted run")
    assert spans.leftover_wrappers() == []


def test_no_wrapper_survives_between_workloads():
    for name in ("digits", "develop"):
        workload = WORKLOADS[name]
        items = workload.generate(0, monocert)
        objects = workload.build(monocert, items)
        rec = spans.Recorder()
        with spans.patched(rec):
            rec.run_op(workload.op, monocert, objects, items[0])
        assert spans.leftover_wrappers() == []
        assert all(rec.calls.get(span) for span, meant in spans.SPANS.items() if name in meant)


def test_run_ops_keeps_a_bounded_sample_spread_over_the_run():
    workload = dataclasses.replace(WORKLOADS["digits"], op=lambda mc, objects, item: item)
    yardstick = run.Yardstick()
    times, ops, _, decided = run.run_ops(workload, None, None, [1, 2, 3], lambda key, item, out: True, yardstick, count=300)
    assert ops == decided == 300
    # 100 rounds: the stride doubled after rounds 32 and 64, so rounds 0, 4, ..., 96 are kept
    assert [len(t) for t in times] == [25, 25, 25]
    assert len(yardstick.samples) >= 1


def test_yardstick_samples_on_its_cadence_and_scales_by_its_median():
    yardstick = run.Yardstick()
    for op_s in (0.0, run.REFERENCE_EVERY_S / 2, run.REFERENCE_EVERY_S, run.REFERENCE_EVERY_S * 1.5):
        yardstick.after(op_s)
    assert len(yardstick.samples) == 2
    yardstick.samples = [run.REFERENCE_S * 2, run.REFERENCE_S * 4, run.REFERENCE_S * 2]
    assert yardstick.scale() == pytest.approx(0.5)


def _run(args, cwd):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_follows_the_contract(trace):
    proc = _run(["--workload", "digits", "--seed", "0", "--seconds", "0.3", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end" if trace == "0" else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "campaign", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
