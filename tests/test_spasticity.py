import pytest
from hypothesis import given, strategies as st

from exosim.config import default_subject_bank
from exosim.hand import Digit, JointKind, default_hand, spastic_rest_pose
from exosim.spasticity import (
    DEFAULT_TOTAL_TRAVEL_MM,
    MasLevel,
    SubjectBank,
    SubjectProfile,
    calibrate_stiffness,
    in_peak_band,
    resistance_force_n,
)


def profile(stiffness, engage_slack=0.0):
    hand = default_hand()
    return SubjectProfile(
        subject_id="T",
        mas=MasLevel.TWO,
        stiffness_n_per_mm=stiffness,
        rest_pose=spastic_rest_pose(hand, 0.7),
        engage_slack_mm=engage_slack,
    )


def test_resistance_example():
    # 0.4 N/mm spring stretched 45 mm -> 18 N
    assert resistance_force_n(profile(0.4), 45.0) == pytest.approx(18.0)


def test_resistance_zero_cases():
    p = profile(0.5, engage_slack=3.0)
    assert resistance_force_n(p, 0.0) == 0.0
    assert resistance_force_n(p, 3.0) == 0.0  # exactly at engagement slack
    assert resistance_force_n(p, -2.0) == 0.0
    assert resistance_force_n(p, 5.0) == pytest.approx(1.0)


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=60.0),
    st.floats(min_value=0.0, max_value=60.0),
)
def test_resistance_monotone_nonnegative(stiffness, e1, e2):
    p = profile(stiffness)
    f1, f2 = resistance_force_n(p, e1), resistance_force_n(p, e2)
    assert f1 >= 0.0 and f2 >= 0.0
    if e1 <= e2:
        assert f1 <= f2


def test_calibrate_stiffness_examples():
    # stiffness that yields a 17.5 N peak over 48 mm of effective travel
    k = calibrate_stiffness(17.5, DEFAULT_TOTAL_TRAVEL_MM)
    assert k == pytest.approx(17.5 / 48.0)
    k2 = calibrate_stiffness(27.5, DEFAULT_TOTAL_TRAVEL_MM)
    assert k2 == pytest.approx(27.5 / 48.0)


@given(
    st.floats(min_value=0.1, max_value=49.0),
    st.floats(min_value=5.0, max_value=60.0),
    st.floats(min_value=0.0, max_value=4.0),
)
def test_calibrate_stiffness_round_trip(peak, travel, slack):
    k = calibrate_stiffness(peak, travel, slack)
    p = profile(k, engage_slack=slack)
    assert resistance_force_n(p, travel) == pytest.approx(peak, rel=1e-9)


def test_calibrate_stiffness_rejects_degenerate_travel():
    with pytest.raises(ValueError):
        calibrate_stiffness(10.0, 0.0)
    with pytest.raises(ValueError):
        calibrate_stiffness(10.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        calibrate_stiffness(-1.0, 10.0)


def test_negative_stiffness_rejected():
    with pytest.raises(ValueError):
        profile(-0.1)


# --- the synthetic subject bank ----------------------------------------------


def test_bank_composition():
    bank = default_subject_bank()
    assert bank.ids() == ("S1", "S2", "S3", "S4", "S5")
    assert len(bank) == 5
    by_mas = {p.subject_id: p.mas for p in bank}
    assert by_mas["S1"] is MasLevel.TWO
    assert by_mas["S2"] is MasLevel.ONE
    assert by_mas["S3"] is MasLevel.ONE
    assert by_mas["S4"] is MasLevel.THREE
    assert by_mas["S5"] is MasLevel.TWO
    assert "index" in bank.by_id("S3").notes


def test_bank_stiffness_and_bands():
    bank = default_subject_bank()
    assert bank.by_id("S1").stiffness_n_per_mm == pytest.approx(17.5 / 48.0)
    assert bank.by_id("S2").stiffness_n_per_mm == pytest.approx(27.5 / 48.0)
    assert bank.by_id("S3").stiffness_n_per_mm == pytest.approx(17.5 / 48.0)
    assert bank.by_id("S4").stiffness_n_per_mm == pytest.approx(1.5)
    assert bank.by_id("S5").stiffness_n_per_mm == pytest.approx(1.0)
    assert bank.by_id("S1").peak_band_n == (15.0, 20.0)
    assert bank.by_id("S2").peak_band_n == (25.0, 30.0)
    assert bank.by_id("S4").peak_band_n == (35.0, None)
    # the stiff subjects ride the stronger magnet
    assert bank.by_id("S4").magnet == "strong"
    assert bank.by_id("S5").magnet == "strong"
    assert bank.by_id("S1").magnet == "standard"


def test_bank_rest_poses():
    hand = default_hand()
    bank = default_subject_bank(hand)
    s1 = bank.by_id("S1").rest_pose
    assert s1.angle((Digit.INDEX, JointKind.MCP)) == pytest.approx(0.75 * 90.0)
    s3 = bank.by_id("S3").rest_pose
    # S3: index more flexed than the other fingers
    assert s3.angle((Digit.INDEX, JointKind.MCP)) == pytest.approx(67.5)
    assert s3.angle((Digit.MIDDLE, JointKind.MCP)) == pytest.approx(54.0)
    for p in bank:
        assert hand.pose_in_limits(p.rest_pose)


def test_duplicate_subject_ids_rejected():
    p = default_subject_bank().by_id("S1")
    with pytest.raises(ValueError):
        SubjectBank((p, p))


def test_in_peak_band():
    assert in_peak_band(17.0, (15.0, 20.0))
    assert not in_peak_band(14.9, (15.0, 20.0))
    assert not in_peak_band(20.1, (15.0, 20.0))
    assert in_peak_band(99.0, (35.0, None))
    assert in_peak_band(5.0, None)
