"""Correctness gate and the statistics rules of the benchmark.

Every call the benchmark makes passes through ``gate_run`` or
``gate_compare``; the default-seed probe is also held against the stored
reference by ``gate_reference``. Each returns a list of failure messages, empty
when the call is correct.
"""

from __future__ import annotations

import math
import statistics

LEDGER_PASS_MIN = 0.99
COMPARE_DISCREPANCY_MAX = 1e-5  # acceptance criterion 7

# Tolerances against the stored reference. The energies and the forcing
# pairing are held to a relative 1e-9. The compare discrepancies are
# differences of fields, so their round-off scales with the compared field,
# not with the discrepancy: each is held to an absolute 1e-12 of its field's
# size at the probe (max|u| 2.2e-5, max|b| 1.0). Computing the transforms
# through rfftn/irfftn moves the energies and the pairing by <= 1e-13
# relative and the u discrepancy by 2.6e-21. A force scaled by 1 + 1e-6 moves
# the pairing by >= 1e-6 relative and the u discrepancy by 2.7e-16, 12x its
# tolerance. The b
# discrepancy moves by 6.9e-16, a few ulps of |b|, below anything round-off
# could be told apart from. tests/test_perfbench.py holds both sides.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = {"max_u_discrepancy": 2.2e-17, "max_b_discrepancy": 1e-12}


def tail_percentile(samples, beyond: int = 10):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (percentile, value): the value is the order statistic with exactly
    ``beyond`` samples above it, and the percentile is the share of samples at
    or below it. None when there are not more than ``beyond`` samples.
    """
    n = len(samples)
    if n <= beyond:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def block_tail(samples, block: int = 100):
    """Median over blocks of ``block`` consecutive samples of each block's
    ``tail_percentile``; fewer samples than two blocks make one block.

    Returns (percentile, value, blocks). A pooled tail over hundreds of
    samples sits at p97 or higher, where a single burst of load from another
    tenant decides it; the median over blocks of 100 keeps it at ~p90.
    """
    n_blocks = max(1, len(samples) // block)
    edges = [round(i * len(samples) / n_blocks) for i in range(n_blocks + 1)]
    tails = [tail_percentile(samples[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    if any(t is None for t in tails):
        return None
    return (
        statistics.median(p for p, _ in tails),
        statistics.median(v for _, v in tails),
        n_blocks,
    )


def trimmed_mean(samples, share: float = 0.1):
    """Mean of the samples left when ``share`` of them is cut from each end.

    The host gauge is averaged this way. A step lasts tens to hundreds of
    gauge lengths, so it sees the host's mean speed over its span, not the
    speed of its median instant; the trim drops the gauges that a preemption
    stretched.
    """
    ordered = sorted(samples)
    cut = int(share * len(ordered))
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def gate_run(report, det_drift_bound: float):
    """Checks on one run_simulation report."""
    failures = []
    if report.aborted:
        failures.append(f"aborted: {report.abort_reason}")
    if not (report.ledger_checked > 0 and report.ledger_pass_rate >= LEDGER_PASS_MIN):
        failures.append(
            f"ledger pass rate {report.ledger_pass_rate} over "
            f"{report.ledger_checked} checks < {LEDGER_PASS_MIN}"
        )
    if not (_finite(report.det_drift_max) and report.det_drift_max <= det_drift_bound):
        failures.append(
            f"det drift {report.det_drift_max:.3e} above reference {det_drift_bound:.3e}"
        )
    return failures


def gate_compare(report, det_drift_bound: float):
    """Checks on one compare_formulations report."""
    failures = []
    worst = max(report.max_u_discrepancy, report.max_b_discrepancy)
    if not (_finite(worst) and worst <= COMPARE_DISCREPANCY_MAX):
        failures.append(f"discrepancy {worst:.3e} above {COMPARE_DISCREPANCY_MAX:.0e}")
    if not (_finite(report.det_drift) and report.det_drift <= det_drift_bound):
        failures.append(
            f"det drift {report.det_drift:.3e} above reference {det_drift_bound:.3e}"
        )
    return failures


def final_values(kind: str, report) -> dict:
    """The values held against the stored default-seed reference."""
    if kind == "compare":
        return {
            "max_u_discrepancy": report.max_u_discrepancy,
            "max_b_discrepancy": report.max_b_discrepancy,
        }
    # the three energies barely see a small force at epsilon0 = 1e-4; the
    # forcing pairing (rhs1 + rhs2, linear in f) is what catches a wrong force
    last = report.samples[-1]
    return {
        "E_total": last.energy_total,
        "script_E": last.script_e,
        "tilde_E": last.corrected,
        "forcing_pairing": last.rhs1 + last.rhs2,
    }


def gate_reference(values: dict, reference: dict):
    failures = []
    for key, ref in reference.items():
        got = values.get(key, float("nan"))
        tol = REFERENCE_ATOL.get(key, REFERENCE_RTOL * abs(ref))
        if not (_finite(got) and abs(got - ref) <= tol):
            failures.append(f"{key} = {got!r} differs from reference {ref!r} by more than {tol:.1e}")
    return failures
