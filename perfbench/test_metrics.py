"""Tests of the benchmark's own arithmetic and of its metric catalog."""

from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path

import pytest

from perfbench import catalog, metrics
from perfbench.speed import REFERENCE_MS, HostSpeed

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# -- percentiles ----------------------------------------------------------- #
def test_percentile_interpolates_between_ranks():
    assert metrics.percentile([1, 2, 3, 4], 50) == 2.5
    assert metrics.percentile(list(range(1, 101)), 95) == pytest.approx(95.05)
    assert metrics.percentile([4, 1, 3, 2], 25) == pytest.approx(1.75)


def test_percentile_extremes_and_single_value():
    values = [7.0, 3.0, 9.0]
    assert metrics.percentile(values, 0) == 3.0
    assert metrics.percentile(values, 100) == 9.0
    assert metrics.percentile([5.0], 95) == 5.0


def test_percentile_matches_inclusive_quantiles():
    values = [0.3, 1.7, 2.2, 2.9, 4.1, 8.8, 9.5]
    assert [metrics.percentile(values, q) for q in (25, 50, 75)] == pytest.approx(
        statistics.quantiles(values, n=4, method="inclusive")
    )


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        metrics.percentile([], 50)
    with pytest.raises(ValueError):
        metrics.percentile([1.0], 101)


def test_median_and_mean():
    assert metrics.median([3, 1, 2]) == 2
    assert metrics.median([4, 1, 3, 2]) == 2.5
    assert metrics.mean([1.0, 2.0, 6.0]) == 3.0
    with pytest.raises(ValueError):
        metrics.mean([])


def test_summarize_latencies_reports_milliseconds():
    summary = metrics.summarize_latencies([0.010, 0.020, 0.030, 0.040])
    assert summary == pytest.approx({"p50_ms": 25.0, "p95_ms": 38.5})


# -- residuals and ratios ---------------------------------------------------- #
def test_residual_is_total_minus_layers():
    assert metrics.residual(10.0, [3.0, 4.0]) == 3.0
    assert metrics.residual(10.0, []) == 10.0


def test_residual_may_be_negative_when_layers_overlap():
    assert metrics.residual(5.0, [3.0, 4.0]) == -2.0


def test_residual_sums_exactly():
    parts = [0.1] * 10
    assert metrics.residual(1.0, parts) == 0.0


def test_ratio_of_nothing_is_zero():
    assert metrics.ratio(3, 4) == 0.75
    assert metrics.ratio(3, 0) == 0.0


# -- normalised costs --------------------------------------------------------- #
def test_norm_cost_is_the_mean_of_a_series_row():
    series = {"NL": {1: 1.0, 2: 1.2, 4: 1.4}, "Optimal": {1: 1.0, 2: 1.0, 4: 1.0}}
    assert metrics.norm_cost(series, "NL") == pytest.approx(1.2)
    assert metrics.norm_cost(series, "Optimal") == 1.0


def test_norm_cost_skips_empty_cells():
    series = {"LH": {2: 1.1, 4: float("nan"), 6: 1.3}}
    assert metrics.norm_cost(series, "LH") == pytest.approx(1.2)


def test_norm_cost_rejects_missing_or_empty_rows():
    with pytest.raises(KeyError):
        metrics.norm_cost({"NL": {1: 1.0}}, "BFPL")
    with pytest.raises(ValueError):
        metrics.norm_cost({"NL": {1: math.nan}}, "NL")


def test_normalised_costs_follow_the_figure_convention():
    costs = {
        "a": {"Optimal": 10.0, "NL": 12.0, "LH": 20.0},
        "b": {"Optimal": 4.0, "NL": 4.0, "LH": 6.0},
        # optimum 0: an allocator that spills nothing counts 1.0 ...
        "c": {"Optimal": 0.0, "NL": 0.0, "LH": 0.0},
        # ... and one that spills anyway is unbounded and left out.
        "d": {"Optimal": 0.0, "NL": 0.0, "LH": 3.0},
    }
    normalised = metrics.normalised_costs(costs)
    assert normalised["Optimal"] == 1.0
    assert normalised["NL"] == pytest.approx((1.2 + 1.0 + 1.0 + 1.0) / 4)
    assert normalised["LH"] == pytest.approx((2.0 + 1.5 + 1.0) / 3)


# -- sweep laps ------------------------------------------------------------ #
def test_lap_throughputs_pool_each_lap():
    windows = [(36, 1.0), (36, 2.0), (36, 0.5), (36, 0.5), (10, 1.0)]
    assert metrics.lap_throughputs(windows, 2) == pytest.approx([72 / 3.0, 72 / 1.0, 10.0])
    assert metrics.lap_throughputs(windows, 5) == pytest.approx([154 / 5.0])
    with pytest.raises(ValueError):
        metrics.lap_throughputs(windows, 0)


# -- host speed scaling ----------------------------------------------------- #
def _speed(samples):
    speed = HostSpeed()
    for at, cpu_ms in samples:
        speed.add(at, cpu_ms / 1000.0)
    return speed


def test_scale_divides_by_the_reference_nearby():
    # The host ran at half speed around t=10 and at reference speed around t=100.
    speed = _speed([(t, 2 * REFERENCE_MS) for t in (9.5, 9.8, 10.0, 10.2, 10.4, 10.6)]
                   + [(t, REFERENCE_MS) for t in (99.6, 99.8, 100.0, 100.2, 100.4)])
    assert speed.factor(10.0, 10.3) == pytest.approx(0.5)
    assert speed.scale(0.8, 10.0, 10.3) == pytest.approx(0.4)
    assert speed.scale(0.8, 100.0) == pytest.approx(0.8)


def test_factor_takes_the_median_of_the_window():
    speed = _speed([(1.0, REFERENCE_MS), (1.1, REFERENCE_MS), (1.2, 50 * REFERENCE_MS),
                    (1.3, REFERENCE_MS), (1.4, REFERENCE_MS)])
    assert speed.factor(1.2) == pytest.approx(1.0)


def test_factor_falls_back_to_the_nearest_samples():
    speed = _speed([(t, REFERENCE_MS) for t in range(5)] + [(t, 4 * REFERENCE_MS) for t in range(50, 55)])
    # No sample within a second of t=40: the five nearest ones (t=50..54) count.
    assert speed.factor(40.0) == pytest.approx(0.25)
    assert speed.factor(-10.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        HostSpeed().factor(0.0)


def test_reference_loop_is_timed():
    speed = HostSpeed()
    speed.sample(3)
    assert len(speed) == 3 and speed.reference_ms() > 0


# -- the catalog explains every metric BENCHMARK.json lists --------------- #
def test_every_end_to_end_metric_is_defined_on_every_workload():
    assert set(catalog.DEFINITIONS) == set(catalog.END_TO_END)
    for metric in catalog.END_TO_END:
        for workload in catalog.WORKLOADS:
            assert catalog.definition(metric, workload), (metric, workload)


def test_per_layer_metrics_name_real_end_to_end_metrics_and_workloads():
    assert set(catalog.PER_LAYER_SPEC) == set(catalog.PER_LAYER)
    for name, (moves, workloads) in catalog.PER_LAYER_SPEC.items():
        assert set(moves) <= set(catalog.END_TO_END), name
        assert workloads and set(workloads) <= set(catalog.WORKLOADS), name


def test_setup_bound_is_the_largest():
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_benchmark_json_respects_the_format_limits():
    spec = json.loads(BENCHMARK.read_text())
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [
        w["name"] for w in spec["workloads"]
    ]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert 1 <= spec["run_seconds"] <= 60 and 2 <= len(spec["workloads"]) <= 8
