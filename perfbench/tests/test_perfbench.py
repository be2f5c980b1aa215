"""Self-tests of the benchmark: declared metrics, determinism, tracing, smoke runs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_short(workload: str, trace: int, seed: int = 3, seconds: float = 1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def smoke(request):
    out = {}
    for trace in (0, 1):
        proc = run_short(request.param, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        out[trace] = (json.loads(lines[-1]), json.loads(lines[-2])["provenance"])
    return out


def test_smoke_run_is_correct(smoke):
    for result, _ in smoke.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1


def test_emitted_metrics_are_declared(smoke):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCH[key]}
        metrics = smoke[trace][0]["metrics"]
        assert set(metrics) == set(declared)
        assert all(m["unit"] == declared[name] for name, m in metrics.items())
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())


def test_end_to_end_metrics_are_nonzero(smoke):
    assert all(m["value"] > 0 for m in smoke[0][0]["metrics"].values())


def test_tracing_leaves_results_unchanged(smoke):
    result, info = smoke[1]
    pairing = info["pairing"]
    assert pairing["digests_equal"] and pairing["compared_ops"] >= 1
    assert pairing["wrappers_restored"] > 0
    accounted = result["metrics"]["trace.accounted_ratio"]["value"]
    assert abs(accounted - 1.0) < 0.01


def test_workloads_are_declared():
    assert set(workloads.WORKLOADS) == {w["name"] for w in BENCH["workloads"]}
    assert spans.metric_names() == [(m["name"], m["unit"], m["better"])
                                    for m in BENCH["per_layer"]]


def _digests(wl, seed: int, count: int) -> list[str]:
    out = []
    for op in islice(workloads.stream(wl, seed), count):
        op.result = _call(op)
        out.append(op.check(op.result))
    return out


def _call(op):
    try:
        return op.call()
    except op.expect as exc:  # an expected rejection is the op's result
        return exc


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    count = 16  # cli_session's first 9 commands take no seeded input
    first = workloads.WORKLOADS[name]()
    second = workloads.WORKLOADS[name]()
    try:
        a = _digests(first, 5, count)
        assert a == _digests(second, 5, count)
        assert a != _digests(second, 6, count)
    finally:
        for wl in (first, second):
            getattr(wl, "close", lambda: None)()


class _Counting:
    """A workload of cycles of three cheap ops."""

    def cycles(self, seed):
        while True:
            yield (workloads.Op("count", lambda: seed, lambda r: str(r)) for _ in range(3))


def test_runner_measures_whole_cycles():
    clock = speed.Clock()
    out = run.run_pass(_Counting(), 4, 0.01, clock)
    assert out.attempted % 3 == 0 and out.attempted >= 3
    assert out.digests == ["4"] * out.attempted and not out.failures
    assert len(out.scaled) == out.attempted and clock.d
    warm = run.run_pass(_Counting(), 4, float("inf"), clock, max_ops=5)
    assert warm.attempted == 5


def test_clock_scales_by_the_slices_around_an_interval():
    clock = speed.Clock()
    nominal = speed.NOMINAL_S
    clock.t = [0.0, 0.5, 1.0, 10.0, 10.5, 11.0]
    clock.d = [nominal, nominal, nominal, 2 * nominal, 2 * nominal, 2 * nominal]
    assert clock.scale(0.2, 0.3) == 1.0  # a host at nominal speed
    assert clock.scale(10.2, 10.3) == 0.5  # a host at half speed
    assert clock.scale(5.0, 5.1) == 2 / 3  # no slice in reach: the two nearest
    assert abs(clock.scaled_span(10.0, 11.0) - 0.5) < 1e-12


def test_tracer_restores_every_original(monkeypatch):
    monkeypatch.chdir(ROOT)
    import delsarte
    from delsarte.cyclotomic import Cyclotomic

    def snapshot():
        mods = [m for k, m in sys.modules.items() if k == "delsarte" or k.startswith("delsarte.")]
        owners = mods + [Cyclotomic, delsarte.CycMatrix]
        return {(id(o), k): v for o in owners for k, v in vars(o).items()}

    before = snapshot()
    original_mul = Cyclotomic.__mul__
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert Cyclotomic.__mul__ is not original_mul
        wl = workloads.WORKLOADS["design_screen"]()
        for op in islice(workloads.stream(wl, 1), 6):
            op.check(_call(op))
    finally:
        restored = tracer.restore()
    assert restored > 0
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.calls["designs.design_report"] == 6
    assert tracer.calls["cyclotomic.scalar_add"] > 0


def test_enumeration_check_catches_a_missing_design(monkeypatch):
    monkeypatch.chdir(ROOT)
    wl = workloads.WORKLOADS["fusion_enum"]()
    op = next(op for op in workloads.stream(wl, 1) if op.kind == "enumerate_direct")
    found = op.call()
    assert found and op.check(found)
    for wrong in (found[1:], found[:-1], ()):
        with pytest.raises(workloads.CheckFailed):
            op.check(wrong)


def test_oracle_finds_the_whole_set_as_a_design(monkeypatch):
    monkeypatch.chdir(ROOT)
    s = workloads.Loaded.entry("x8")
    assert tuple(range(8)) in s.t_designs(s.random_T(workloads.Draws("t", 1)), 8)


def test_digests_do_not_depend_on_storage():
    import numpy as np
    from fractions import Fraction

    rel = [[0, 1], [1, 0]]
    assert oracle.digest(np.array(rel, dtype=np.int32)) == oracle.digest(rel)
    assert oracle.digest(np.array(rel, dtype=np.int64)) == oracle.digest(tuple(map(tuple, rel)))
    assert oracle.digest(np.bool_(True), np.int64(3)) == oracle.digest(True, 3)
    assert oracle.digest(Fraction(3), Fraction(1, 2)) == oracle.digest(3, Fraction(1, 2))
    assert oracle.digest(rel) != oracle.digest([[1, 0], [0, 1]])


def test_modular_evaluation_is_a_ring_homomorphism():
    from delsarte.cyclotomic import Cyclotomic

    x = Cyclotomic.from_terms(12, [(1, 3), (5, -2), (0, 1)])
    y = Cyclotomic.from_terms(4, [(1, 1), (0, 2)])
    for which in (0, 1):
        F = oracle.field(12, which)
        assert F.of(Cyclotomic.zeta(12, 12)) == 1
        assert F.of(x * y) == F.of(x) * F.of(y) % F.p
        assert F.of(x + y) == (F.of(x) + F.of(y)) % F.p
        assert F.of(x.galois(5)) == F.of(x, 5)
        assert F.of(x.conjugate()) == F.of(x, 11)


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_short("eigen_build", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
