"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import importlib.util
import json
import os
import statistics
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, grid_config  # noqa: E402

from deferlab.cli import main as cli_main  # noqa: E402
from deferlab.config import validate_config  # noqa: E402

TINY = dict(
    num_classes=4,
    dim=4,
    separation=2.0,
    noise_scale=1.0,
    train_size=80,
    val_size=40,
    test_size=50,
    context_pool_size=80,
    experts_id=2,
    experts_ood=2,
    overlap_probabilities=[0.5],
    context_size=20,
    seeds=[7],
    method=["ea_l2d", "pop_avg"],
    epochs=2,
    eval_ranges=[[0.0, 1.0], [0.25, 0.6]],
)


def test_self_time_on_hand_built_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: together they cover [1, 6]
        ("leaf", 2.0, 3.0, 1),
        ("a", 9.0, 12.0, 0),  # runs past root's end: only [9, 10] counts
    ]
    out = tracing.summarize(spans)
    assert out["root"] == {"calls": 1, "s": 10.0, "self_s": 10.0 - 5.0 - 1.0}
    assert out["a"] == {"calls": 2, "s": 6.0, "self_s": 6.0 - 1.0}
    assert out["b"] == {"calls": 1, "s": 3.0, "self_s": 3.0}
    assert out["leaf"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_tracer_records_nesting_and_passes_values_through(tmp_path):
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def inner(x, *, y=1):
        return [x, y]

    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: traced_inner(2, y=3) + traced_inner(4))
    assert outer() == [2, 3, 4, 1]

    def boom():
        raise KeyError("passes through")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    tracer.dump(str(tmp_path / "spans"))
    _, spans = tracing.load(str(tmp_path / "spans"))
    # outer [0, 5], inner [1, 2] and [3, 4], boom [6, 7]
    assert spans == [
        ("outer", 0.0, 5.0, -1),
        ("inner", 1.0, 2.0, 0),
        ("inner", 3.0, 4.0, 0),
        ("boom", 6.0, 7.0, -1),
    ]
    assert tracing.summarize(spans)["outer"]["self_s"] == 3.0


def test_unknown_span_fails_loudly():
    import deferlab.cli  # noqa: F401  (loads every deferlab module)

    with pytest.raises(tracing.TraceError, match="nets.no_such_function"):
        tracing.Tracer().install(spans=("nets.no_such_function",))


def test_span_that_never_fires_fails_loudly(tmp_path):
    tracer = tracing.Tracer()
    tracer.wrap("simulate.make_population", lambda: None)()
    tracer.dump(str(tmp_path / "spans"))
    with pytest.raises(tracing.TraceError, match="nets.backward"):
        run.layer_metrics(str(tmp_path / "spans"), {"simulate.make_population", "nets.backward"})


def test_host_probe_scales_by_the_median_tick():
    with hostspeed.HostProbe() as probe:
        start = time.monotonic()
        time.sleep(0.3)
        end = time.monotonic()
    ticks = probe.ticks(start, end)
    assert len(ticks) >= hostspeed.MIN_TICKS
    assert probe.scale(start, end) == hostspeed.REFERENCE_TICK_S / statistics.median(ticks)
    with pytest.raises(hostspeed.ProbeError):
        probe.scale(end + 1.0, end + 2.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_validate_and_follow_the_seed(name):
    make = WORKLOADS[name].config
    first, second = validate_config(make(1)), validate_config(make(2))
    assert first.seeds != second.seeds
    assert {**make(1), "seeds": None} == {**make(2), "seeds": None}


def test_grid_is_the_acceptance_grid():
    path = os.path.join(ROOT, "tests", "test_acceptance.py")
    spec = importlib.util.spec_from_file_location("acceptance_module", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert grid_config(1) == module.ACCEPTANCE_RAW


def test_expected_op_counts():
    counts = {n: len(check.expected_ops(w.config(1))) for n, w in WORKLOADS.items()}
    assert counts == {"grid": 54, "wide_cohort": 4, "eval_heavy": 12}


def test_corrupted_curve_is_a_failed_op(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY))
    out = tmp_path / "out"
    assert cli_main(["evaluate", "--config", str(cfg_path), "--out", str(out)]) == 0
    results = check.check_outputs(str(out), TINY, 0)
    assert len(results) == 6 and not any(results.values())

    assert run.negative_control(str(out), TINY, results) == []
    corrupted = check.check_outputs(str(out), TINY, 0)
    assert sum(bool(p) for p in corrupted.values()) == 1

    failed_exit = check.check_outputs(str(out), TINY, 1)
    assert all(failed_exit.values())

    (out / "curve_oracle_p0_5_e1_seed7_ood.csv").write_text("")
    (out / "metrics_pop_avg_p0_5_e1.csv").write_text("")
    emptied = [op for op, p in check.check_outputs(str(out), TINY, 0).items() if p]
    assert len(emptied) == 4


def test_missing_metric_row_is_a_failed_op(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY))
    out = tmp_path / "out"
    assert cli_main(["evaluate", "--config", str(cfg_path), "--out", str(out)]) == 0
    metrics = out / "metrics_oracle_p0_5_e1.csv"
    lines = metrics.read_text().splitlines(keepends=True)
    metrics.write_text("".join(line for line in lines if not line.startswith("aurdac,0.25")))
    failed = [op for op, p in check.check_outputs(str(out), TINY, 0).items() if p]
    assert {(op.method, op.cohort) for op in failed} == {("oracle", "id"), ("oracle", "ood")}


def test_wide_cohort_digests_stable_and_unchanged_by_tracing(tmp_path):
    config = WORKLOADS["wide_cohort"].config(1)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    digests = []
    for prefix in ("-", "-", str(tmp_path / "spans")):
        out = tmp_path / f"out{len(digests)}"
        args = ["evaluate", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]
        sample = run.spawn(str(tmp_path), "run", args, prefix)
        assert sample["exit_code"] == 0
        digests.append((check.artifact_digest(str(out)), check.metrics_digest(str(out))))
    assert digests[0] == digests[1] == digests[2]
    expected = set(tracing.SPANS) - WORKLOADS["wide_cohort"].unused_spans
    layers = run.layer_metrics(str(tmp_path / "spans"), expected)
    assert layers["deferral.pair_steps"] == 10 * 2000 * 20
    assert layers["deferral.batches"] == 10 * 32
