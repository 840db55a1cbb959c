"""Tests for the batch delta kernels in repro.core.jer.

``convolve_pmf`` / ``deconvolve_pmf`` generalise IncrementalJury's
single-juror maintenance to k-juror batches.  Under test: folding factors in
matches a from-scratch DP (one at a time bit for bit), and deconvolution
inverts it within ``DECONV_ATOL``, including next to ``eps = 0.5``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.jer import convolve_pmf, deconvolve_pmf
from repro.core.poisson_binomial import pmf_dp
from repro.errors import InvalidErrorRateError
from repro.testing import DECONV_ATOL, PMF_ATOL


class TestConvolvePmf:
    def test_matches_from_scratch_dp(self, rng):
        base = rng.uniform(0.05, 0.95, size=9)
        extra = rng.uniform(0.05, 0.95, size=4)
        grown = convolve_pmf(pmf_dp(base), extra)
        np.testing.assert_allclose(
            grown, pmf_dp(np.concatenate([base, extra])), atol=PMF_ATOL
        )

    def test_empty_batch_is_identity(self):
        pmf = pmf_dp([0.2, 0.3])
        np.testing.assert_array_equal(convolve_pmf(pmf, []), pmf)

    def test_single_factor_equals_sequential(self, rng):
        eps = rng.uniform(0.05, 0.95, size=6)
        one_shot = convolve_pmf(np.ones(1), eps)
        step_wise = np.ones(1)
        for e in eps:
            step_wise = convolve_pmf(step_wise, [e])
        np.testing.assert_array_equal(one_shot, step_wise)

    def test_result_is_a_distribution(self, rng):
        pmf = convolve_pmf(np.ones(1), rng.uniform(0.05, 0.95, size=20))
        assert np.all(pmf >= 0.0)
        assert float(pmf.sum()) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(InvalidErrorRateError):
            convolve_pmf(np.ones(1), [0.2, 1.5])

    def test_rejects_bad_pmf_shape(self):
        with pytest.raises(ValueError, match="1-D"):
            convolve_pmf(np.ones((2, 2)), [0.2])


class TestDeconvolvePmf:
    def test_inverts_convolve(self, rng):
        base = rng.uniform(0.05, 0.95, size=11)
        extra = rng.uniform(0.05, 0.95, size=5)
        pmf = pmf_dp(np.concatenate([base, extra]))
        np.testing.assert_allclose(
            deconvolve_pmf(pmf, extra), pmf_dp(base), atol=DECONV_ATOL
        )

    def test_stable_near_one_half(self, rng):
        """Both recurrence directions are exercised right around 0.5, where
        deconvolution has the least damping."""
        base = rng.uniform(0.45, 0.55, size=15)
        drop = [base[3], base[7], base[11]]
        keep = np.delete(base, [3, 7, 11])
        np.testing.assert_allclose(
            deconvolve_pmf(pmf_dp(base), drop), pmf_dp(keep), atol=DECONV_ATOL
        )

    def test_remove_everything_leaves_empty_pmf(self, rng):
        eps = rng.uniform(0.1, 0.9, size=7)
        np.testing.assert_allclose(
            deconvolve_pmf(pmf_dp(eps), eps), [1.0], atol=DECONV_ATOL
        )

    def test_rejects_removing_more_factors_than_present(self):
        with pytest.raises(ValueError, match="deconvolve"):
            deconvolve_pmf(pmf_dp([0.2, 0.3]), [0.2, 0.3, 0.4])

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(InvalidErrorRateError):
            deconvolve_pmf(pmf_dp([0.2, 0.3]), [-0.1])

