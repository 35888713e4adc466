import itertools
import math

import numpy as np
import pytest

from steklovbif import ClosedFactorSpectrum, flat_torus_spectrum, from_list
from steklovbif.errors import CutoffExhaustedError, PreconditionError
from steklovbif.factors import load_spectrum, save_spectrum, spectrum_from_dict

TWO_PI = 2.0 * math.pi


class TestFlatTorusSpectrum:
    def test_square_torus_up_to_five(self):
        spec = flat_torus_spectrum(TWO_PI * np.eye(2), 5.0)
        got = [(round(v, 9), m) for v, m in spec.entries]
        assert got == [(0.0, 1), (1.0, 4), (2.0, 4), (4.0, 4), (5.0, 8)]

    def test_first_entry_is_constants(self):
        rng = np.random.default_rng(3)
        basis = rng.standard_normal((3, 3)) + 4 * np.eye(3)
        spec = flat_torus_spectrum(basis, 10.0)
        v0, m0 = spec.entries[0]
        assert v0 == 0.0 and m0 == 1

    @pytest.mark.parametrize("s", [0.5, 2.0, 3.0])
    def test_basis_scaling_scales_eigenvalues(self, s):
        base = flat_torus_spectrum(TWO_PI * np.eye(2), 8.0)
        scaled = flat_torus_spectrum(s * TWO_PI * np.eye(2), 8.0 / s**2)
        assert len(scaled) == len(base)
        for (v, m), (vs, ms) in zip(base.entries, scaled.entries):
            assert vs == pytest.approx(v / s**2, abs=1e-12)
            assert ms == m

    def test_completeness_against_lattice_point_count(self):
        # eigenvalue count below R == integer points in the disk of radius sqrt(R)
        R = 100.0
        spec = flat_torus_spectrum(TWO_PI * np.eye(2), R)
        counted = sum(m for _, m in spec.entries)
        bound = int(math.isqrt(int(R)))
        brute = sum(
            1
            for kx, ky in itertools.product(range(-bound - 1, bound + 2), repeat=2)
            if kx * kx + ky * ky <= R
        )
        assert counted == brute

    def test_one_dimensional_torus(self):
        # circle of circumference 2pi: eigenvalues k^2, multiplicity 2 for k >= 1
        spec = flat_torus_spectrum(TWO_PI * np.eye(1), 9.5)
        got = [(round(v, 9), m) for v, m in spec.entries]
        assert got == [(0.0, 1), (1.0, 2), (4.0, 2), (9.0, 2)]

    def test_singular_basis_rejected(self):
        with pytest.raises(PreconditionError, match="singular"):
            flat_torus_spectrum([[1.0, 1.0], [1.0, 1.0]], 5.0)

    def test_bad_cutoff_rejected(self):
        with pytest.raises(PreconditionError):
            flat_torus_spectrum(np.eye(2), 0.0)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_non_finite_cutoff_or_basis_rejected(self, x):
        # not left to a ValueError or OverflowError from the search box
        with pytest.raises(PreconditionError, match="cutoff must be positive and finite"):
            flat_torus_spectrum(np.eye(2), x)
        with pytest.raises(PreconditionError, match="lattice basis must be finite"):
            flat_torus_spectrum([[1.0, 0.0], [x, 1.0]], 5.0)


class TestFromList:
    def test_trivial_spectrum(self):
        spec = from_list([(0.0, 1)], m1=2)
        assert spec.cutoff == 0.0
        assert len(spec) == 1

    def test_valid_spectrum(self):
        spec = from_list([(0.0, 1), (1.0, 4), (2.0, 4)], m1=2)
        assert spec.value(2) == 2.0
        assert spec.multiplicity(1) == 4

    def test_connectedness_enforced(self):
        with pytest.raises(PreconditionError, match="mu\\(0\\) = 1"):
            from_list([(0.0, 2), (1.0, 4)], m1=2)

    def test_zero_first_enforced(self):
        with pytest.raises(PreconditionError, match="first eigenvalue"):
            from_list([(1.0, 1), (2.0, 4)], m1=2)

    def test_ascending_enforced(self):
        with pytest.raises(PreconditionError, match="ascending"):
            from_list([(0.0, 1), (2.0, 4), (1.0, 4)], m1=2)

    def test_multiplicity_enforced(self):
        with pytest.raises(PreconditionError, match="multiplicities"):
            from_list([(0.0, 1), (1.0, 0)], m1=2)

    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, x):
        # a NaN fails every comparison, so the order check alone lets it in
        with pytest.raises(PreconditionError, match="eigenvalues must be finite"):
            from_list([(0.0, 1), (1.0, 2), (x, 4), (4.0, 4)], m1=2)
        with pytest.raises(PreconditionError, match="eigenvalues must be finite"):
            from_list([(0.0, 1), (1.0, 2), (x, 4)], m1=2)

    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_non_finite_cutoff_rejected(self, x):
        with pytest.raises(PreconditionError, match="cutoff must be finite"):
            ClosedFactorSpectrum(2, ((0.0, 1), (1.0, 2)), x)

    def test_index_beyond_cutoff_fails_loudly(self):
        spec = from_list([(0.0, 1), (1.0, 4)], m1=2)
        with pytest.raises(CutoffExhaustedError):
            spec.value(2)

    def test_negative_index_rejected(self):
        # not Python's count from the end: index -1 is no eigenvalue
        spec = from_list([(0.0, 1), (1.0, 4)], m1=2)
        with pytest.raises(PreconditionError, match="non-negative"):
            spec.value(-1)
        with pytest.raises(PreconditionError, match="non-negative"):
            spec.multiplicity(-1)


class TestSpectrumIO:
    def test_json_round_trip(self, tmp_path):
        spec = flat_torus_spectrum(TWO_PI * np.eye(2), 10.0)
        path = tmp_path / "torus.json"
        save_spectrum(spec, path)
        loaded = load_spectrum(path)
        assert loaded.dim == spec.dim
        assert loaded.cutoff == spec.cutoff
        assert loaded.entries == spec.entries

    def test_missing_key_rejected(self):
        with pytest.raises(PreconditionError, match="missing key"):
            spectrum_from_dict({"dim": 2, "entries": [[0, 1]]})
