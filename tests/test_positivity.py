"""One positivity rule: linalg.is_psd on the largest-|eigenvalue| scale.

A functional is positive exactly when Functional.is_positive() says so;
linalg.power only clamps, and the raw-matrix entry point psd_sqrt tests
the spectrum it holds.
"""

import numpy as np
import pytest

from amplitude_lab import (
    CovarianceForm,
    Functional,
    NotPositive,
    PresymplecticSpace,
    interpolated_form,
    make_algebra,
    psd_sqrt,
    sqrt_vector,
    transition_amplitude,
    validate_covariance,
)
from amplitude_lab.linalg import eigh, is_psd, power


def small_block_roundoff():
    """Positive at the scale 10 of the functional, though block 1 alone is negative."""
    alg = make_algebra([2, 1])
    return Functional(alg, (np.diag([10.0, 0.0]), np.array([[-5e-10]])))


class TestFunctionalPositivity:
    def test_amplitude_of_a_positive_functional(self):
        phi = small_block_roundoff()
        assert phi.is_positive()
        assert transition_amplitude(phi, phi) == pytest.approx(10.0, abs=1e-9)
        assert np.all(sqrt_vector(phi).blocks[1] == 0.0)

    def test_nonpositive_functional_is_rejected(self):
        alg = make_algebra([2, 1])
        phi = Functional(alg, (np.diag([1.0, 0.0]), np.array([[-1e-3]])))
        assert not phi.is_positive()
        with pytest.raises(NotPositive):
            sqrt_vector(phi)
        with pytest.raises(NotPositive):
            interpolated_form(phi, phi, 0.5)


class TestMatrixPositivity:
    def test_slack_follows_the_largest_abs_eigenvalue(self):
        # slack 1e-10 * (1 + 4) = 5e-10
        assert is_psd(np.array([-4.9e-10, 4.0]))
        assert not is_psd(np.array([-5.1e-10, 4.0]))
        assert is_psd(np.array([]))

    def test_covariance_scale_is_spectral_not_entrywise(self):
        # largest entry ~1, largest eigenvalue ~4: -3e-10 is inside the slack
        space = PresymplecticSpace(np.zeros((4, 4)))
        ones = np.ones((4, 4))
        assert validate_covariance(CovarianceForm(ones - 3e-10 * np.eye(4)), space)
        assert not validate_covariance(CovarianceForm(ones - 6e-10 * np.eye(4)), space)

    def test_power_clamps_without_raising(self):
        spec = eigh(np.diag([1.0, -0.5]))
        assert np.array_equal(power(spec, 0.5), np.diag([1.0, 0.0]))
        assert np.array_equal(power(spec, 0.0), np.eye(2))

    def test_psd_sqrt_rejects_negative(self):
        with pytest.raises(NotPositive):
            psd_sqrt(np.diag([1.0, -0.5]))
