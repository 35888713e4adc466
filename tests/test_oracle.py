import math

import numpy as np
import pytest

from steklovbif import oracle
from steklovbif.errors import PreconditionError


class TestBesselSeries:
    # references computed independently (scipy.special.iv) and frozen
    @pytest.mark.parametrize(
        "k,s,expected",
        [
            (0, 0.5, 1.0634833707413236),
            (0, 2.0, 2.2795853023360673),
            (1, 1.0, 0.565159103992485),
            (2, 3.0, 2.2452124409299516),
            (5, 10.0, 777.1882864032599),
            (0, 40.0, 1.4894774793419894e16),
        ],
    )
    def test_series_against_frozen_references(self, k, s, expected):
        assert oracle.bessel_i(k, s) == pytest.approx(expected, rel=1e-12)

    def test_window_enforced(self):
        with pytest.raises(PreconditionError):
            oracle.bessel_i(0, 51.0)
        with pytest.raises(PreconditionError):
            oracle.bessel_ratio(0, 0.0)


class TestBesselRatio:
    def test_small_s_expansion_k0(self):
        # s I_0'/I_0 = s^2/2 - s^4/16 + O(s^6)
        assert oracle.bessel_ratio(0, 0.1) == pytest.approx(0.004993760398793893, rel=1e-12)
        for s in [1e-3, 1e-2]:
            assert abs(oracle.bessel_ratio(0, s) - s**2 / 2) < s**4

    def test_small_s_expansion_k1(self):
        # s I_1'/I_1 = 1 + s^2/4 + O(s^4): recovers the Steklov value 1 at c = 0
        for s in [1e-3, 1e-2, 1e-1]:
            assert abs(oracle.bessel_ratio(1, s) - 1.0 - s**2 / 4) < s**4

    def test_value_at_two(self):
        assert oracle.bessel_ratio(0, 2.0) == pytest.approx(1.395549315928016, rel=1e-12)


class TestDiskBranches:
    def test_steklov_limits(self):
        assert oracle.disk_robin_steklov(0, 0.0) == 0.0
        assert oracle.disk_robin_steklov(2, 0.0) == 2.0

    def test_first_branch_at_c_one(self):
        assert oracle.disk_robin_steklov(0, 1.0) == pytest.approx(
            0.4463899658965345, rel=1e-12
        )

    def test_multiplicities(self):
        assert oracle.disk_multiplicity(0) == 1
        assert oracle.disk_multiplicity(3) == 2
        assert oracle.disk_spectrum(0.0, 7) == [0, 1, 1, 2, 2, 3, 3]

    def test_negative_c_rejected(self):
        with pytest.raises(PreconditionError):
            oracle.disk_robin_steklov(0, -1.0)


class TestIntervalBranches:
    def test_limits_at_zero(self):
        assert oracle.interval_robin_steklov("even", 0.0, 1.0) == 0.0
        assert oracle.interval_robin_steklov("odd", 0.0, 1.0) == 2.0
        assert oracle.interval_robin_steklov("odd", 0.0, 2.0) == 1.0

    def test_small_c_expansions(self):
        # even: c/2 + O(c^2); odd: 2 + c/6 + O(c^2) on L = 1
        for c in [1e-4, 1e-3]:
            assert abs(oracle.interval_robin_steklov("even", c, 1.0) - c / 2) < c**2
            assert abs(oracle.interval_robin_steklov("odd", c, 1.0) - 2 - c / 6) < c**2

    def test_even_value(self):
        assert oracle.interval_robin_steklov("even", 4.0, 2.0) == pytest.approx(
            2.0 * math.tanh(2.0), rel=1e-15
        )

    def test_bad_parity_rejected(self):
        with pytest.raises(PreconditionError):
            oracle.interval_robin_steklov("both", 1.0, 1.0)


class TestBranchMonotonicity:
    @pytest.mark.parametrize(
        "branch",
        [
            oracle.disk_branch(0),
            oracle.disk_branch(1),
            oracle.disk_branch(3),
            oracle.interval_branch("even", 1.0),
            oracle.interval_branch("odd", 2.0),
        ],
        ids=["disk-k0", "disk-k1", "disk-k3", "interval-even", "interval-odd"],
    )
    def test_increasing_by_finite_differences(self, branch):
        cs = np.linspace(0.05, 20.0, 20)
        h = 1e-5
        for c in cs:
            assert branch(c + h) > branch(c - h)


class TestSolveBranchRoot:
    def test_disk_root_for_one_third(self):
        branch = oracle.disk_branch(0)
        c_star = oracle.solve_branch_root(branch, 1.0 / 3.0)
        assert abs(branch(c_star) - 1.0 / 3.0) <= 1e-10 / 3.0
        # independent reference: scipy brentq on scipy.special.iv, frozen
        assert c_star == pytest.approx(0.7253659025007897, rel=1e-9)

    def test_interval_root(self):
        branch = oracle.interval_branch("even", 1.0)
        c_star = oracle.solve_branch_root(branch, 1.0)
        assert abs(branch(c_star) - 1.0) <= 1e-10

    def test_target_below_branch_start_rejected(self):
        with pytest.raises(PreconditionError):
            oracle.solve_branch_root(oracle.disk_branch(1), 0.5)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(PreconditionError):
            oracle.solve_branch_root(oracle.interval_branch("even", 1.0), -1.0)
