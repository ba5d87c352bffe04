"""Tests of the benchmark itself: input generation, the tracer, and the
run contract.  Run with `python3 -m pytest bench/test_bench.py -q`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 7
HELD_OUT_SEED = 20261017


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert wl.make_pool(workload, SEED) == wl.make_pool(workload, SEED)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_held_out_seed_gives_different_inputs_that_run(workload):
    pool = wl.make_pool(workload, HELD_OUT_SEED)
    base = wl.make_pool(workload, SEED)
    assert [op.name for op in pool] == [op.name for op in base]
    for a, b in zip(pool, base):
        assert (a.text == b.text) == wl.is_reference(a)
    first_of_shape = {}
    for op in pool:
        first_of_shape.setdefault(wl.shape_of(op), op)
    for op in first_of_shape.values():
        text = wl.execute(op)
        assert isinstance(json.loads(text)["pass"], bool)
        assert np.isfinite(wl.check(op, text).share)


def _bindings():
    import higher_holonomy.cli  # noqa: F401

    out = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("higher_holonomy"):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_tracer_restores_every_original():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        during = _bindings()
        changed = [k for k in before if during[k] is not before[k]]
        assert len(changed) >= 40
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is before[k] for k in before)


def _traced(op):
    tracer = tracing.Tracer()
    with tracer:
        span = tracer.begin_op(0, wl.shape_of(op))
        text = wl.execute(op)
        tracer.end_op(span)
    return tracer, text


def test_self_time_never_exceeds_wall_time():
    pool = wl.make_pool("sweep", SEED) + wl.make_pool("loops", SEED)[:2]
    for op in pool[:2] + pool[-2:]:
        tracer, _ = _traced(op)
        arrays = tracer.arrays()
        assert len(arrays["duration"]) > 10
        assert np.all(arrays["self"] <= arrays["duration"])
        assert np.all(arrays["self"] >= -1e-9)
        top = arrays["parent"] < 0
        assert np.isclose(arrays["self"].sum(), arrays["duration"][top].sum())


def test_tracing_leaves_reports_unchanged():
    op = wl.make_pool("sweep", SEED)[0]
    _, traced = _traced(op)
    assert wl.digest(traced) == wl.digest(wl.execute(op))


def test_work_counts_match_documented_values():
    probes = {wl.shape_of(op): op for op in wl.make_pool("probes", SEED)}
    tracer, _ = _traced(probes["roundtrip-eg"])
    assert tracing.per_kind_counts(tracer)["roundtrip-eg"]["lie_core.retract.calls"] == 11776
    layers = tracing.layer_metrics(tracer)
    assert layers["extraction.transports_per_one_form_probe"] == 4
    assert layers["extraction.transports_per_two_form_probe"] == 24

    bf_op = wl.make_pool("fields", SEED)[0]
    tracer, _ = _traced(bf_op)
    assert tracing.layer_metrics(tracer)["bf_theory.action.calls"] == 20


def test_same_seed_gives_byte_identical_reports_across_processes():
    def hashes():
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "worker.py"), "pass", "--workload",
             "loops", "--seed", str(HELD_OUT_SEED)],
            capture_output=True, text=True, check=True, timeout=120)
        return [o["hash"] for o in json.loads(proc.stdout)["ops"]]

    first = hashes()
    assert None not in first
    assert first == hashes()


def test_rescaling_cancels_a_uniform_host_slowdown():
    import run

    assert run._rescaled(0.3, [0.02, 0.03]) == pytest.approx(0.3 * run.REFERENCE_S / 0.025)
    assert run._rescaled(1.5 * 0.3, [1.5 * 0.02, 1.5 * 0.03]) == pytest.approx(
        run._rescaled(0.3, [0.02, 0.03]))


def test_run_counts_each_input_once_however_often_it_repeats():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "loops", "--seed",
         str(SEED), "--seconds", "10", "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    timed = int(proc.stdout.split(" operations timed")[0].rsplit(", ", 1)[1])
    assert result["correct"] is True
    assert result["attempted"] == len(wl.make_pool("loops", SEED))
    assert timed > result["attempted"]
    assert set(result["metrics"]) == {"setup_s", "tolerance_share", "peak_rss_mb",
                                      "op1_s", "op2_s"}


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "loops", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
