"""Rational weights, environment fine-graining, and the counting pipeline."""

from __future__ import annotations

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envarkit import (
    IncompleteDerivation,
    NoRationalFit,
    RationalWeights,
    WeightMismatch,
    born_via_counting,
    equal_branch_derivation,
    fine_grain,
    rationalize,
    schmidt,
)
from envarkit.finegrain import MAX_GRAIN, _Shares


class TestRationalize:
    def test_even_pair(self):
        w = rationalize([0.5, 0.5], tol=1e-9, max_den=1000)
        assert w.numerators == (1, 1) and w.denominator == 2

    def test_thirds(self):
        w = rationalize([1 / 3, 2 / 3], tol=1e-12, max_den=1000)
        assert w.numerators == (1, 2) and w.denominator == 3

    def test_irrational_weights_rejected(self):
        with pytest.raises(NoRationalFit):
            rationalize([2**-0.5, 1 - 2**-0.5], tol=1e-9, max_den=1000)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weights_rejected(self, bad):
        # NaN passes both ``w <= 0`` and the sum check, which compare false
        with pytest.raises(WeightMismatch, match="finite"):
            rationalize([bad, 0.5])

    def test_bad_sum_rejected(self):
        with pytest.raises(WeightMismatch):
            rationalize([1 / 3, 1 / 3], tol=1e-9, max_den=10)

    @given(st.lists(st.integers(1, 9), min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_recovers_exact_fractions(self, parts):
        total = sum(parts)
        w = rationalize([p / total for p in parts], tol=1e-9, max_den=10**4)
        assert w.fractions == tuple(Fraction(p, total) for p in parts)


class TestRationalWeights:
    def test_sum_must_match_denominator(self):
        with pytest.raises(WeightMismatch):
            RationalWeights((1, 1), 3)

    def test_positive_numerators(self):
        with pytest.raises(WeightMismatch):
            RationalWeights((0, 3), 3)

    def test_messages_for_ordinary_integers(self):
        with pytest.raises(WeightMismatch, match=re.escape("numerators sum to 2 but denominator is 3")):
            RationalWeights((1, 1), 3)
        with pytest.raises(WeightMismatch, match=re.escape("positive integers, got (0, 3)")):
            RationalWeights((0, 3), 3)
        with pytest.raises(WeightMismatch, match=re.escape("positive integers, got [1, -1]")):
            RationalWeights([1, -1], 0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RationalWeights((10**5000,), 1),
            lambda: RationalWeights((-(10**5000), 1), 1),
            lambda: RationalWeights.from_fractions([Fraction(1, 10**5000), 1]),
        ],
    )
    def test_huge_integers_get_a_short_message(self, make):
        # printing an int of more than 4,300 digits raises ValueError
        with pytest.raises(WeightMismatch, match="16610-bit integer") as info:
            make()
        assert len(str(info.value)) < 120

    def test_from_fractions(self):
        w = RationalWeights.from_fractions([Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])
        assert w.numerators == (1, 2, 1) and w.denominator == 4


class TestFineGrain:
    def test_one_two_thirds_layout(self):
        fine = fine_grain(RationalWeights((1, 2), 3), 2)
        amp = 1 / np.sqrt(3)
        expected = np.array([[amp, 0, 0], [0, amp, amp]], dtype=complex)
        np.testing.assert_allclose(fine.state.amps, expected, atol=1e-15)
        assert fine.branch_map == ((1,), (2, 3))
        lam = schmidt(fine.state).coefficients
        np.testing.assert_allclose(lam, [np.sqrt(2 / 3), np.sqrt(1 / 3)], atol=1e-12)

    def test_even_pair_is_two_branch_even_state(self):
        fine = fine_grain(RationalWeights((1, 1), 2), 2)
        np.testing.assert_allclose(fine.state.amps, np.eye(2) / np.sqrt(2), atol=1e-15)

    def test_quarters_spectrum(self):
        fine = fine_grain(RationalWeights((1, 1, 2), 4), 3)
        lam = schmidt(fine.state).coefficients
        np.testing.assert_allclose(lam, [np.sqrt(0.5), 0.5, 0.5], atol=1e-12)

    def test_branch_count_mismatch(self):
        with pytest.raises(WeightMismatch):
            fine_grain(RationalWeights((1, 2), 3), 3)

    def test_all_amplitudes_equal_magnitude(self):
        fine = fine_grain(RationalWeights((2, 3, 5), 10), 3)
        nonzero = np.abs(fine.state.amps[np.abs(fine.state.amps) > 0])
        np.testing.assert_allclose(nonzero, 1 / np.sqrt(10), atol=1e-15)


class TestBornViaCounting:
    @pytest.mark.parametrize(
        "numerators,denominator,expected",
        [
            ((1, 2), 3, (Fraction(1, 3), Fraction(2, 3))),
            ((1, 1), 2, (Fraction(1, 2), Fraction(1, 2))),
            ((5, 3), 8, (Fraction(5, 8), Fraction(3, 8))),
        ],
    )
    def test_known_weights(self, numerators, denominator, expected):
        probs = born_via_counting(RationalWeights(numerators, denominator))
        assert tuple(probs) == expected

    def test_routes_through_derivation_engine(self):
        born_via_counting(RationalWeights((1, 2), 3))
        _, store, _ = equal_branch_derivation(3)
        assert len(store.trace) > 0

    def test_builds_no_state_once_the_grain_is_derived(self, monkeypatch):
        equal_branch_derivation(6)

        def refuse(*args, **kwargs):
            raise AssertionError("born_via_counting built a state")

        monkeypatch.setattr("envarkit.finegrain.make_state", refuse)
        probs = born_via_counting(RationalWeights((1, 2, 3), 6))
        assert probs == [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]

    def test_sum_is_exactly_one(self):
        for nums, den in (((1, 2, 3), 6), ((7, 9), 16), ((1,), 1)):
            assert sum(born_via_counting(RationalWeights(nums, den))) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_squared_coefficients_up_to_64(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        parts = rng.multinomial(64 - n, np.full(n, 1 / n)) + 1
        w = RationalWeights(tuple(int(p) for p in parts), 64)
        probs = born_via_counting(w)
        assert probs == [Fraction(int(p), 64) for p in parts]
        lam_sq = sorted((float(v) ** 2 for v in schmidt(fine_grain(w, n).state).coefficients), reverse=True)
        expected = sorted((float(p) for p in probs), reverse=True)
        assert max(abs(a - b) for a, b in zip(lam_sq, expected)) <= 1e-9


def test_derivation_cache_is_bounded_and_keeps_the_sweep():
    maxsize = equal_branch_derivation.cache_info().maxsize
    assert maxsize is not None and maxsize >= 32
    for m in range(1, 33):
        equal_branch_derivation(m)
    before = equal_branch_derivation.cache_info()
    for m in range(1, 33):
        equal_branch_derivation(m)
    after = equal_branch_derivation.cache_info()
    assert after.hits - before.hits == 32 and after.misses == before.misses


def test_cold_derivation_at_grain_96_peaks_below_16_mb():
    # Frames are a permutation and a phase per expr, not a dense r x r matrix,
    # and the union-find and trace hold ints: about 37,000 terms at M = 96.
    tracemalloc.start()
    try:
        equal_branch_derivation.__wrapped__(96)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize(
    "grain,error",
    [
        (-1, WeightMismatch),
        (0, WeightMismatch),
        (1.5, WeightMismatch),
        (6.0, WeightMismatch),
        ("6", WeightMismatch),
        (None, WeightMismatch),
        (MAX_GRAIN + 1, NoRationalFit),
        pytest.param(10**5000, NoRationalFit, id="5001-digits"),
        pytest.param([3], WeightMismatch, id="list"),
        pytest.param(np.array([3]), WeightMismatch, id="1-d-array"),
    ],
)
def test_equal_branch_derivation_refuses_a_grain_before_building_a_state(monkeypatch, grain, error):
    equal_branch_derivation(6)  # cached, yet 6.0 must still be refused

    def refuse(*args, **kwargs):
        raise AssertionError("equal_branch_derivation built a state")

    monkeypatch.setattr("envarkit.finegrain.make_state", refuse)
    with pytest.raises(error) as info:
        equal_branch_derivation(grain)
    assert len(str(info.value)) < 120


def test_equal_branch_derivation_takes_any_integer_type():
    _, _, shares = equal_branch_derivation(np.int64(3))
    assert shares == equal_branch_derivation(3)[2] == (Fraction(1, 3),) * 3


def test_shares_that_are_not_multiples_of_one_over_the_grain_are_refused():
    message = "the shares of grain 4 are not multiples of 1/4"
    with pytest.raises(IncompleteDerivation, match=re.escape(message)):
        _Shares([Fraction(1, 3)] * 3, 4)
    assert _Shares([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)], 4).prefix == (0, 2, 3, 4)
