"""Checks for the scalar special functions and the Dirichlet divergence.

Reference routes are independent of the implementation under test:
closed-form identities, scipy.special, and a Monte-Carlo estimate of
the divergence from Beta samples.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, psi

from fiscalforge.errors import ContractError
from fiscalforge.special_functions import digamma, dirichlet_kl, ln_gamma

EULER_GAMMA = 0.5772156649015329

_arguments = st.floats(1e-3, 1e6)
_concentration = st.floats(1e-3, 1e4)


class TestLnGamma:
    def test_factorial_identities(self):
        """Gamma(1) = 1, Gamma(5) = 4!, Gamma(1/2) = sqrt(pi)."""
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-10)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-10)
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-10)

    def test_recurrence_on_log_grid(self):
        """|ln_gamma(x+1) - ln_gamma(x) - ln x| <= 1e-9 over [1e-2, 1e4]."""
        for x in np.logspace(-2, 4, 500):
            x = float(x)
            assert abs(ln_gamma(x + 1.0) - ln_gamma(x) - math.log(x)) <= 1e-9

    @settings(max_examples=300, deadline=None)
    @given(x=_arguments)
    def test_recurrence_property(self, x):
        """lnGamma(x+1) = lnGamma(x) + ln x on [1e-3, 1e6], relative to lnGamma(x+1).

        The absolute error near 1e6, where lnGamma(x+1) is about 1.3e7,
        reaches 3e-9; the relative error stays near 4e-15.
        """
        lhs = ln_gamma(x + 1.0)
        assert abs(lhs - ln_gamma(x) - math.log(x)) <= 1e-12 * max(1.0, abs(lhs))

    def test_matches_reference_implementation(self):
        """Agrees with scipy.special.gammaln across [1e-3, 1e6]."""
        xs = np.logspace(-3, 6, 1000)
        ours = np.array([ln_gamma(float(x)) for x in xs])
        np.testing.assert_allclose(ours, gammaln(xs), rtol=1e-12, atol=1e-11)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(ContractError):
            ln_gamma(bad)


class TestDigamma:
    def test_euler_mascheroni(self):
        """psi(1) is minus the Euler-Mascheroni constant."""
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-10)

    def test_known_values(self):
        """psi(2) = 1 - gamma and psi(1/2) = -gamma - 2 ln 2."""
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-10)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-10)

    def test_recurrence_on_log_grid(self):
        """|psi(x+1) - psi(x) - 1/x| <= 1e-9 over [1e-2, 1e4]."""
        for x in np.logspace(-2, 4, 500):
            x = float(x)
            assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-9

    @settings(max_examples=300, deadline=None)
    @given(x=_arguments)
    def test_recurrence_property(self, x):
        """psi(x+1) = psi(x) + 1/x on [1e-3, 1e6]."""
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-12

    def test_matches_reference_implementation(self):
        xs = np.logspace(-3, 6, 1000)
        ours = np.array([digamma(float(x)) for x in xs])
        np.testing.assert_allclose(ours, psi(xs), rtol=1e-12, atol=1e-10)

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan"), float("-inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(ContractError):
            digamma(bad)


def _mc_kl_beta(alpha, beta, n_samples, rng):
    """Monte-Carlo E_p[ln p - ln q] for K=2 Dirichlet via Beta sampling."""
    x = rng.beta(alpha[0], alpha[1], size=n_samples)

    def log_beta_fn(v):
        return gammaln(v[0]) + gammaln(v[1]) - gammaln(v[0] + v[1])

    log_ratio = (
        (log_beta_fn(beta) - log_beta_fn(alpha))
        + (alpha[0] - beta[0]) * np.log(x)
        + (alpha[1] - beta[1]) * np.log1p(-x)
    )
    return float(log_ratio.mean())


class TestDirichletKl:
    def test_identical_is_exactly_zero(self):
        assert dirichlet_kl([5.0, 3.0], [5.0, 3.0]) == 0.0
        assert dirichlet_kl([0.2, 7.0, 1.5], [0.2, 7.0, 1.5]) == 0.0

    def test_closed_form_value(self):
        """D([2,1] || [1,1]) = ln 2 - 1/2 via psi(2) - psi(3) = -1/2."""
        assert dirichlet_kl([2.0, 1.0], [1.0, 1.0]) == pytest.approx(
            math.log(2.0) - 0.5, abs=1e-12
        )

    def test_regression_value(self):
        """Frozen value for ([5,3] || [6,4]), Monte-Carlo verified."""
        assert dirichlet_kl([5.0, 3.0], [6.0, 4.0]) == pytest.approx(
            0.0337650344671, abs=1e-9
        )

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            a = rng.uniform(0.1, 50.0, size=k)
            b = rng.uniform(0.1, 50.0, size=k)
            assert dirichlet_kl(a, b) >= -1e-12

    @settings(max_examples=300, deadline=None)
    @given(pair=st.integers(2, 5).flatmap(
        lambda k: st.tuples(*[st.lists(_concentration, min_size=k, max_size=k)] * 2)))
    # Concentrations one ulp apart at the top of the range: -3.0e-11 unclamped.
    @example(pair=([1e4, 1e4], [1e4, 9999.999999999998]))
    def test_non_negative_property(self, pair):
        a, b = pair
        assert dirichlet_kl(a, b) >= -1e-12

    @settings(max_examples=300, deadline=None)
    @given(a=st.lists(_concentration, min_size=2, max_size=5))
    def test_exactly_zero_on_equal_inputs(self, a):
        assert dirichlet_kl(a, list(a)) == 0.0

    def test_identity_of_indiscernibles_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.uniform(0.1, 50.0, size=int(rng.integers(2, 6)))
            assert abs(dirichlet_kl(a, a)) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            dirichlet_kl([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_non_positive_component(self):
        with pytest.raises(ContractError):
            dirichlet_kl([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ContractError):
            dirichlet_kl([1.0, 1.0], [-2.0, 1.0])

    def test_monte_carlo_agreement(self):
        """Closed form matches the sampled estimate within 3e-3 at 1e6 draws."""
        rng = np.random.default_rng(2024)
        for a, b in [([2.0, 1.0], [1.0, 1.0]), ([5.0, 3.0], [6.0, 4.0]),
                     ([4.2, 0.9], [2.5, 2.5])]:
            estimate = _mc_kl_beta(a, b, 1_000_000, rng)
            assert dirichlet_kl(a, b) == pytest.approx(estimate, abs=3e-3)
