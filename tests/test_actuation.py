import math

import pytest
from hypothesis import given, strategies as st

from exosim.actuation import (
    ActuatorSpec,
    CouplingSpec,
    LoadCellSpec,
    MAGNET_BREAKAWAY_N,
    actuator_position_mm,
    coupling_for_magnet,
    measure,
    retraction_duration_s,
    update_coupling,
)


def test_actuator_defaults():
    spec = ActuatorSpec()
    assert (spec.stroke_mm, spec.max_speed_mm_s, spec.peak_force_n) == (50.0, 5.0, 50.0)
    assert retraction_duration_s(spec) == pytest.approx(10.0)


def test_actuator_position_examples():
    spec = ActuatorSpec()
    assert actuator_position_mm(0.0, spec) == 50.0
    assert actuator_position_mm(4.0, spec) == pytest.approx(30.0)
    assert actuator_position_mm(10.0, spec) == 0.0
    assert actuator_position_mm(11.0, spec) == 0.0  # clamps at end of stroke


def test_actuator_position_rejects_negative_time():
    with pytest.raises(ValueError):
        actuator_position_mm(-0.01, ActuatorSpec())


@given(st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=0.0, max_value=100.0))
def test_actuator_position_monotone_and_bounded(t1, t2):
    spec = ActuatorSpec()
    if t1 > t2:
        t1, t2 = t2, t1
    p1, p2 = actuator_position_mm(t1, spec), actuator_position_mm(t2, spec)
    assert 0.0 <= p2 <= p1 <= spec.stroke_mm


def test_magnet_table():
    assert MAGNET_BREAKAWAY_N == {"standard": 34.0, "strong": 41.0}
    assert coupling_for_magnet("standard").breakaway_force_n == 34.0
    assert coupling_for_magnet("strong").breakaway_force_n == 41.0
    with pytest.raises(ValueError):
        coupling_for_magnet("giant")
    with pytest.raises(ValueError, match="unknown magnet"):
        coupling_for_magnet(["strong"])  # a config value that is not a name


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        ActuatorSpec(stroke_mm=0.0)
    with pytest.raises(ValueError):
        CouplingSpec(0.0)
    with pytest.raises(ValueError):
        LoadCellSpec(resolution_n=0.0)


# --- load cell ---------------------------------------------------------------


def test_measure_examples():
    cell = LoadCellSpec()
    assert measure(0.0, cell) == 0.0
    # 0.300 N sits between 0.196 and 0.392, nearer 0.392
    assert measure(0.300, cell) == pytest.approx(0.392)
    assert measure(60.0, cell) == 50.0  # saturation
    with pytest.raises(ValueError):
        measure(-0.1, cell)


def test_measure_tie_rounds_up():
    cell = LoadCellSpec()
    assert measure(0.098, cell) == pytest.approx(0.196)
    # a representable exact midpoint: 2.5 steps rounds up to 3 steps
    assert measure(2.5 * cell.resolution_n, cell) == pytest.approx(
        3 * cell.resolution_n
    )


@given(st.floats(min_value=0.0, max_value=49.9))
def test_measure_error_within_half_step(force):
    cell = LoadCellSpec()
    assert abs(measure(force, cell) - force) <= cell.resolution_n / 2.0 + 1e-12


@given(st.floats(min_value=0.0, max_value=80.0))
def test_measure_idempotent(force):
    cell = LoadCellSpec()
    once = measure(force, cell)
    assert measure(once, cell) == once


@given(st.floats(min_value=0.0, max_value=80.0), st.floats(min_value=0.0, max_value=80.0))
def test_measure_monotone(f1, f2):
    cell = LoadCellSpec()
    if f1 > f2:
        f1, f2 = f2, f1
    assert measure(f1, cell) <= measure(f2, cell)


def test_measure_full_scale_band():
    cell = LoadCellSpec()
    # 49.98 is the last regular code; readings nearer to 50 snap to full scale
    assert measure(49.985, cell) == pytest.approx(0.196 * 255)
    assert measure(49.995, cell) == cell.range_max_n
    assert measure(cell.range_max_n, cell) == cell.range_max_n
    assert measure(55.0, cell) == cell.range_max_n
    # a full-scale reading re-measures to itself
    assert measure(measure(60.0, cell), cell) == cell.range_max_n


# --- breakaway coupling -------------------------------------------------------


def test_coupling_latches_open():
    spec = CouplingSpec(34.0)
    assert update_coupling(20.0, spec, 1.0) is None
    assert update_coupling(34.0, spec, 2.0) == 2.0  # threshold reached exactly
    # force falling back below the threshold must not re-engage
    assert update_coupling([20.0, 34.0, 0.0], spec, [1.0, 2.0, 3.0]) == 2.0
    assert update_coupling([20.0, 40.0, 34.0], spec, [1.0, 2.0, 3.0]) == 2.0


forces = st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=60)


@given(forces, st.floats(min_value=30.0, max_value=45.0))
def test_coupling_latching_property(force_seq, threshold):
    """The coupling opens at the first crossing and stays open forever."""
    spec = CouplingSpec(threshold)
    crossed_at = None
    for i, f in enumerate(force_seq):
        opened = update_coupling(force_seq[: i + 1], spec, [float(k) for k in range(i + 1)])
        if crossed_at is None and f >= threshold:
            crossed_at = i
        # engaged iff no crossing has happened yet, and open since the first
        assert opened == (None if crossed_at is None else float(crossed_at))
