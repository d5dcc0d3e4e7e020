"""Unit tests for the MD-step measurement harness (reduced scale)."""

import pytest

from repro.analysis.mdstep import (
    build_dhfr_md,
    fig11_series,
    fig12_series,
    fig13_timeline,
    run_step_pair,
    run_table3,
)

SHAPE = (2, 2, 2)
ATOMS = 400


@pytest.fixture(scope="module")
def table3():
    return run_table3(run_step_pair(build_dhfr_md(shape=SHAPE, atoms=ATOMS)))


def test_table3_has_all_rows(table3):
    assert set(table3) == {
        "average", "range_limited", "long_range", "fft_convolution", "thermostat"
    }
    for row in table3.values():
        assert row.total_us > 0
        assert 0 <= row.communication_us <= row.total_us


def test_long_range_costs_more_than_range_limited(table3):
    assert table3["long_range"].total_us > table3["range_limited"].total_us
    assert (
        table3["long_range"].communication_us
        > table3["range_limited"].communication_us
    )


def test_average_is_midpoint(table3):
    rl, lr, avg = (
        table3["range_limited"], table3["long_range"], table3["average"]
    )
    assert avg.total_us == pytest.approx((rl.total_us + lr.total_us) / 2)


def test_fig11_series_structure():
    """Structural checks at toy scale (a 2×2×2 torus has a 3-hop
    diameter, so drift can barely lengthen bond routes — the *gain*
    from regeneration is asserted at scale by the Fig. 11 benchmark).
    """
    pts = fig11_series(
        total_steps=600_000, epochs=3, regen_interval=120_000,
        shape=SHAPE, atoms=ATOMS,
    )
    assert len(pts) == 4
    assert pts[0].steps_completed == 0
    assert pts[-1].steps_completed == 600_000
    # Diffusion lengthens the no-regen bond phase even here.
    assert pts[-1].step_time_no_regen_us > pts[0].step_time_no_regen_us
    # Both curves stay in the same ballpark (regen is never catastrophic).
    for p in pts:
        assert p.step_time_with_regen_us == pytest.approx(
            p.step_time_no_regen_us, rel=0.10
        )


def test_fig12_curve_falls_and_flattens():
    pts = fig12_series(intervals=(1, 2, 4, 8), shape=SHAPE, atoms=ATOMS)
    times = [p.step_time_us for p in pts]
    assert times[0] > times[-1]
    assert times == sorted(times, reverse=True)
    # Amortisation: migration cost per step shrinks with the interval.
    per_step = [p.migration_cost_us / p.migration_interval for p in pts]
    assert per_step == sorted(per_step, reverse=True)


def test_fig13_renders_unit_classes():
    pair = run_step_pair(build_dhfr_md(shape=SHAPE, atoms=ATOMS))
    text = fig13_timeline(pair, buckets=16)
    for col in ("GC", "HTIS", "TS"):
        assert col in text
    assert "legend" in text
    assert pair.long_range.total_ns > pair.range_limited.total_ns
