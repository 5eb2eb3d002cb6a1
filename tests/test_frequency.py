import logging
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscbasis import Frequency, parse_omega_spec
from oscbasis.frequency import TWO_PI


def test_exact_multiple_constructor():
    freq = Frequency.exact(20)
    assert freq.k == 20
    assert freq.epsilon == 0.0
    assert freq.omega == TWO_PI * 20
    assert freq.exact_multiple


def test_exact_rejects_k_below_one():
    with pytest.raises(ValueError):
        Frequency.exact(0)


def test_parse_symbolic_spec():
    freq = parse_omega_spec("2pi*7")
    assert freq.k == 7
    assert freq.epsilon == 0.0
    assert freq.omega == TWO_PI * 7


def test_parse_is_case_and_space_tolerant():
    assert parse_omega_spec("2PI * 3").omega == TWO_PI * 3
    assert parse_omega_spec(" 2 pi*11 ").k == 11


def test_parse_numeric_spec():
    freq = parse_omega_spec("12.0")
    assert freq.omega == 12.0
    assert freq.k == 2
    assert freq.epsilon == pytest.approx(12.0 - TWO_PI * 2, rel=1e-15)
    assert not freq.exact_multiple


def test_parse_rejects_garbage():
    for bad in ("", "fast", "2pi*", "2pi*-3", "nan"):
        with pytest.raises(ValueError):
            parse_omega_spec(bad)


def test_numeric_near_multiple_promotes_to_exact(caplog):
    # repr round-trip of 2*pi*20 lands within the promotion tolerance
    text = repr(TWO_PI * 20)
    with caplog.at_level(logging.INFO, logger="oscbasis.frequency"):
        freq = parse_omega_spec(text)
    assert freq.exact_multiple
    assert freq.epsilon == 0.0
    assert "promoting" in caplog.text


def test_from_omega_small_frequency_keeps_k_zero():
    freq = Frequency.from_omega(0.9)
    assert freq.k == 0
    assert freq.epsilon == pytest.approx(0.9)


def test_residual_shift_stays_within_half_period():
    freq = Frequency.from_omega(TWO_PI * 10 - 0.25)
    assert freq.k == 10
    assert freq.epsilon == pytest.approx(-0.25, abs=1e-13)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Frequency(omega=-1.0, k=0, epsilon=-1.0)
    with pytest.raises(ValueError):
        Frequency(omega=float("inf"), k=1, epsilon=0.0)
    with pytest.raises(ValueError):
        Frequency(omega=TWO_PI + 4.0, k=1, epsilon=4.0)
    with pytest.raises(ValueError):
        # decomposition does not add up
        Frequency(omega=TWO_PI * 5, k=5, epsilon=1.0)
    for k in (5.0, 5.5, True):
        with pytest.raises(ValueError, match="k must be an integer"):
            Frequency(omega=TWO_PI * 5, k=k, epsilon=0.0)
    for value in (True, False, "1.0", None, [1.0]):
        with pytest.raises(ValueError, match="omega must be a real number"):
            Frequency(omega=value, k=0, epsilon=1.0)
        with pytest.raises(ValueError, match="epsilon must be a real number"):
            Frequency(omega=TWO_PI * 5, k=5, epsilon=value)


@given(st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))
def test_from_omega_decomposition_is_consistent(omega):
    freq = Frequency.from_omega(omega)
    assert freq.k >= 0
    assert abs(freq.epsilon) <= math.pi + 1e-9
    assert freq.omega == omega or freq.exact_multiple
    assert freq.omega == pytest.approx(TWO_PI * freq.k + freq.epsilon, rel=1e-12, abs=1e-12)


@given(st.integers(min_value=1, max_value=10_000))
def test_exact_multiples_round_trip_through_parser(k):
    freq = parse_omega_spec(f"2pi*{k}")
    assert freq.k == k
    assert freq.exact_multiple


def test_negative_k_is_refused():
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        Frequency(omega=1.0, k=-1, epsilon=1.0 + TWO_PI)


@pytest.mark.parametrize("make", [
    lambda: Frequency(omega=10 ** 400, k=0, epsilon=0.0),
    lambda: Frequency(omega=1.0, k=10 ** 400, epsilon=0.0),
    lambda: Frequency.exact(10 ** 400),
    lambda: Frequency.from_omega(10 ** 400),
], ids=["omega", "k", "exact", "from_omega"])
def test_integer_too_large_for_a_float_is_a_value_error(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("omega, k", [(10.0, 2), (TWO_PI * 20, 20)],
                         ids=["10.0", "2pi*20"])
def test_nan_remainder_is_refused(omega, k):
    with pytest.raises(ValueError, match=r"^epsilon must satisfy \|epsilon\| <= pi, got nan$"):
        Frequency(omega=omega, k=k, epsilon=float("nan"))


def test_k_above_omega_is_an_inconsistent_decomposition():
    with pytest.raises(ValueError, match="inconsistent decomposition: k=3 > omega=2.5"):
        Frequency(omega=2.5, k=3, epsilon=0.0)


def test_exact_refuses_k_whose_multiple_overflows():
    k = 10 ** 308  # a float, but 2 pi k is not
    with pytest.raises(ValueError, match="and 2\\*pi\\*k finite"):
        Frequency.exact(k)
    assert math.isfinite(Frequency.exact(10 ** 307).omega)


def test_from_omega_renormalizes_a_remainder_just_past_pi():
    # omega / 2 pi rounds to k = 8 with epsilon = 3.1415926535897967 > pi
    omega = 53.40707511102649
    assert math.ceil(omega / TWO_PI - 0.5) == 8 and omega - TWO_PI * 8 > math.pi
    freq = Frequency.from_omega(omega)
    assert freq.k == 9
    assert abs(freq.epsilon) <= math.pi
    assert freq.omega == omega
