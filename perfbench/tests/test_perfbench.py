"""Tests of the benchmark's own rules: the tail percentile, self time, the
exact-count check and the correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import lagmhd.evolution as evolution  # noqa: E402
from lagmhd.config import RunConfig  # noqa: E402
from lagmhd.fields import VectorField  # noqa: E402
from lagmhd.grid import Grid  # noqa: E402
from lagmhd.runner import run_simulation  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, patched, self_times  # noqa: E402

REFERENCE = json.loads((HERE.parent / "reference.json").read_text())
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


# -- tail percentile ------------------------------------------------------------


def test_tail_is_the_order_statistic_with_ten_samples_beyond():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    percentile, value = checks.tail_percentile(values)
    assert percentile == 90.0
    assert value == 90
    assert sum(v > value for v in values) == 10


def test_tail_percentile_follows_the_sample_count():
    percentile, value = checks.tail_percentile([5.0] * 10 + [1.0])
    assert percentile == pytest.approx(100.0 / 11)
    assert value == 1.0
    percentile, _ = checks.tail_percentile(list(range(400)))
    assert percentile == 97.5
    assert checks.tail_percentile(list(range(10))) is None


def test_block_tail_is_the_median_of_block_tails():
    blocks = [list(range(100)), [v + 1000 for v in range(100)], list(range(100))]
    samples = [v for b in blocks for v in b] + list(range(100))
    percentile, value, n_blocks = checks.block_tail(samples)
    assert n_blocks == 4
    assert percentile == 90.0
    assert value == 89  # the burst in the second block does not move the median
    short = list(range(57))
    assert checks.block_tail(short) == (*checks.tail_percentile(short), 1)
    assert checks.block_tail(list(range(10))) is None


def test_trimmed_mean_drops_a_tenth_from_each_end():
    samples = [1.0] * 9 + [100.0] + [2.0] * 10  # one gauge stretched by a preemption
    assert checks.trimmed_mean(samples) == pytest.approx((7 * 1.0 + 9 * 2.0) / 16)
    assert checks.trimmed_mean([3.0, 5.0]) == 4.0


# -- spans and self time ---------------------------------------------------------


def test_self_time_subtracts_children_and_clips_to_the_parent():
    starts = [0.0, 1.0, 4.0, 5.0, 9.0]
    ends = [10.0, 3.0, 8.0, 6.0, 12.0]
    parents = [-1, 0, 0, 2, 0]  # span 4 runs past its parent's end
    own = self_times(starts, ends, parents)
    assert own == pytest.approx([10.0 - 2.0 - 4.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_overlapping_children_are_counted_once():
    own = self_times([0.0, 1.0, 2.0], [10.0, 5.0, 6.0], [-1, 0, 0])
    assert own[0] == pytest.approx(10.0 - 5.0)


def test_tracer_records_parents_runs_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap(inner, "inner", count=lambda args, result: {"n": result})
    outer = tracer.wrap(lambda: wrapped_inner(1) + wrapped_inner(2), "outer")
    tracer.run_id = 7
    assert outer() == 5
    assert tracer.names == ["outer", "inner", "inner"]
    assert tracer.parents == [-1, 0, 0]
    assert tracer.runs == [7, 7, 7]
    assert tracer.attrs == {1: {"n": 2}, 2: {"n": 3}}
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    assert own[0] == (tracer.ends[0] - tracer.starts[0]) - 2.0


def test_patched_restores_the_original_binding():
    original = evolution.compute_force
    with patched([(evolution, "compute_force", None)]):
        assert evolution.compute_force is None
    assert evolution.compute_force is original


# -- exact counts ------------------------------------------------------------------


def _tiny_config(tmp_path):
    return RunConfig(
        dimension=2,
        sizes=(16, 16),
        dt=0.05,
        t_end=0.2,
        cadence=0.05,
        epsilon0=1e-4,
        output_dir=str(tmp_path),
    )


def test_traced_calls_give_every_metric_and_identical_counts(tmp_path):
    tracer = Tracer()
    cfg = _tiny_config(tmp_path)
    with patched(layers.trace_targets(tracer, workloads.host_gauge(cfg.sizes))):
        for run_id in (1, 2):
            tracer.run_id = run_id
            with tracer.span("runner.run_simulation"):
                run_simulation(cfg)
    metrics, counts = layers.per_layer(tracer, [1, 2])
    assert layers.check_exact(dict(zip([1, 2], counts))) == []
    assert metrics["evolution.forces_per_step"] == 2
    assert metrics["runner.samples_per_run"] == 5
    assert metrics["pressure.failed"] == 0
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(names) == set(metrics) | {"trace.overhead_ratio", "host.gauge_ms"}


def test_gauge_time_is_taken_out_and_the_host_speed_scaled_away():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    tracer.run_id = 1

    def span(name, seconds):
        idx = tracer.begin(name)
        now[0] += seconds
        tracer.end(idx)

    call = tracer.begin("runner.run_simulation")
    now[0] += 0.5  # set-up
    for _ in range(3):
        span(layers.FORCE, 0.1)
        span(layers.STEP, 0.1)  # a step that returns 0.2 s after the last gauge
        span(layers.GAUGE, 0.01)
    tracer.end(call)
    timed = layers.end_to_end(tracer, [1])
    assert timed["step_ms_p50"] == pytest.approx(200.0)
    assert timed["steps_per_s"] == pytest.approx(3 / 1.1)
    assert timed["setup_s"] == pytest.approx(0.5)
    assert timed["gauge_ms"] == pytest.approx(10.0)
    # a host twice as slow as the reference: times halve, the rate doubles
    scaled = worker.at_reference_speed(timed, gauge_ms=5.0)
    assert scaled["step_ms_p50"] == pytest.approx(100.0)
    assert scaled["setup_s"] == pytest.approx(0.25)
    assert scaled["steps_per_s"] == pytest.approx(6 / 1.1)


def test_differing_counts_fail_the_later_call():
    first = dict.fromkeys(layers.EXACT, 4)
    second = dict(first, **{"pressure.picard_iters": 5})
    failures = layers.check_exact({3: first, 4: second})
    assert [run for run, _ in failures] == [4]
    assert "pressure.picard_iters" in failures[0][1]


# -- the correctness gate ------------------------------------------------------------


def _probe_values(name, tmp_path):
    wl = workloads.build(name, workloads.DEFAULT_SEED)
    cfg = workloads.probe_config(wl, str(tmp_path))
    return checks.final_values(wl.kind, workloads.invoke(wl, cfg))


def _gate(name, values):
    return checks.gate_reference(values, REFERENCE[name]["probe"])


def _scaled_force(*args, **kwargs):
    force = _ORIGINAL_FORCE(*args, **kwargs)
    force.f = VectorField.from_spec(force.f.grid, force.f.spec * (1.0 + 1e-6))
    return force


_ORIGINAL_FORCE = evolution.compute_force


def _rfft(grid, values):
    """Full spectrum through rfftn: a round-off change, not a result change."""
    n = grid.sizes[-1]
    half = sfft.rfftn(values, axes=grid.spatial_axes) / grid.npoints
    mirror = np.conj(half[..., 1 : n // 2][..., ::-1])  # c(-k) = conj(c(k))
    for ax in grid.spatial_axes[:-1]:
        mirror = np.roll(np.flip(mirror, axis=ax), 1, axis=ax)
    return np.concatenate([half, mirror], axis=-1)


def _irfft(grid, spec):
    n = grid.sizes[-1]
    return sfft.irfftn(
        spec[..., : n // 2 + 1] * grid.npoints, s=grid.sizes, axes=grid.spatial_axes
    )


@pytest.mark.parametrize("name", ["plane2d", "compare16"])
def test_gate_passes_the_clean_probe_and_catches_a_scaled_force(name, tmp_path):
    assert _gate(name, _probe_values(name, tmp_path)) == []
    with patched([(evolution, "compute_force", _scaled_force)]):
        failures = _gate(name, _probe_values(name, tmp_path))
    assert failures


def test_rfft_matches_the_full_transform():
    grid = Grid((8, 16, 8), (1.0, 2.0, 3.0))
    values = np.random.default_rng(1).standard_normal((3,) + grid.shape)
    assert np.abs(_rfft(grid, values) - grid.fft(values)).max() < 1e-15
    spec = grid.fft(values)
    assert np.abs(_irfft(grid, spec) - grid.ifft(spec)).max() < 1e-14


@pytest.mark.parametrize("name", ["plane2d", "slab3d", "compare16"])
def test_gate_passes_transforms_through_rfft(name, tmp_path):
    with patched([(Grid, "fft", _rfft), (Grid, "ifft", _irfft)]):
        assert _gate(name, _probe_values(name, tmp_path)) == []


def test_a_differing_csv_fails_the_repeat():
    bench = worker.Bench(workloads.build("plane2d", 1), REFERENCE["plane2d"], Path("."))
    csv = b"t,E_total\n0,1.0000000000000000\n"
    bench.calls = [
        {"label": "probe", "failures": [], "output": b"other seed"},
        {"label": "call 1", "failures": [], "output": csv},
        {"label": "call 2", "failures": [], "output": csv.replace(b"1.0", b"1.1")},
        {"label": "call 3", "failures": [], "output": csv},
    ]
    bench.gate_repeats()
    assert [bool(c["failures"]) for c in bench.calls] == [False, False, True, False]


def test_gate_run_rejects_aborts_ledger_and_drift(tmp_path):
    report = run_simulation(_tiny_config(tmp_path))
    bound = 2 * report.det_drift_max
    assert checks.gate_run(report, bound) == []
    assert len(checks.gate_run(replace(report, aborted=True, abort_reason="x"), bound)) == 1
    assert checks.gate_run(replace(report, ledger_pass_rate=0.5), bound)
    assert checks.gate_run(report, report.det_drift_max / 2)
