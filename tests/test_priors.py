import numpy as np
import pytest
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from mcgan.priors import (
    BoxPrior,
    KlBasis,
    LatentPrior,
    MaternConfig,
    kl_decompose,
    matern_covariance_matrix,
    sample_fields,
    unit_square_grid,
)


def matern_cov(xi, xj, cfg):
    """Covariance between two points, through the matrix over the pair."""
    return matern_covariance_matrix(np.array([xi, xj], dtype=float), cfg)[0, 1]


def matern_bessel_oracle(d, nu, length, sigma):
    """Direct evaluation through the modified Bessel function."""
    if d == 0:
        return sigma**2
    x = np.sqrt(2 * nu) * d / length
    return sigma**2 * (2 ** (1 - nu) / gamma_fn(nu)) * x**nu * kv(nu, x)


class TestMatern:
    def test_zero_lag_is_variance(self):
        cfg = MaternConfig(nu=1.5, length=0.2, sigma=0.5)
        assert matern_cov((0.3, 0.4), (0.3, 0.4), cfg) == pytest.approx(0.25)

    def test_exponential_case_matches_bessel_oracle(self):
        # nu = 1/2 collapses to sigma^2 exp(-d/l); at d = l the value is e^{-1}
        cfg = MaternConfig(nu=0.5, length=1.0, sigma=1.0)
        got = matern_cov(0.0, 1.0, cfg)
        assert got == pytest.approx(np.exp(-1.0), rel=1e-12)
        assert got == pytest.approx(matern_bessel_oracle(1.0, 0.5, 1.0, 1.0), rel=1e-10)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_closed_forms_match_bessel_oracle(self, nu):
        cfg = MaternConfig(nu=nu, length=0.2, sigma=0.5)
        for d in [1e-3, 0.05, 0.2, 0.7, 2.0]:
            got = matern_cov((0.0, 0.0), (d, 0.0), cfg)
            want = matern_bessel_oracle(d, nu, 0.2, 0.5)
            assert got == pytest.approx(want, rel=1e-9)

    def test_default_config_is_field_study_setting(self):
        cfg = MaternConfig()
        assert (cfg.nu, cfg.length, cfg.sigma) == (1.5, 0.2, 0.5)

    def test_symmetric_positive_decreasing(self):
        cfg = MaternConfig(nu=1.5, length=0.3, sigma=1.0)
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(10, 2))
        for i in range(10):
            for j in range(10):
                cij = matern_cov(pts[i], pts[j], cfg)
                cji = matern_cov(pts[j], pts[i], cfg)
                assert cij == pytest.approx(cji, rel=1e-14)
                assert cij > 0
        ds = np.linspace(0, 3, 40)
        vals = [matern_cov(0.0, d, cfg) for d in ds]
        assert np.all(np.diff(vals) < 0)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            MaternConfig(nu=1.0)
        with pytest.raises(ValueError):
            MaternConfig(length=-1.0)
        with pytest.raises(ValueError):
            MaternConfig(length=float("nan"))


class TestKlDecompose:
    def test_identity(self):
        basis = kl_decompose(np.eye(5))
        np.testing.assert_allclose(basis.eigenvalues, np.ones(5))
        np.testing.assert_allclose(basis.truncated_covariance(5), np.eye(5), atol=1e-12)

    def test_diagonal(self):
        basis = kl_decompose(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(basis.eigenvalues, [4.0, 1.0])
        np.testing.assert_allclose(np.abs(basis.eigenvectors), np.eye(2), atol=1e-12)

    def test_matern_reconstruction(self):
        pts = np.linspace(0.0, 1.0, 16)
        cov = matern_covariance_matrix(pts, MaternConfig())
        basis = kl_decompose(cov)
        recon = basis.truncated_covariance(basis.size)
        assert np.max(np.abs(recon - cov)) < 1e-8

    def test_eigen_residual(self):
        pts = unit_square_grid(5)
        cov = matern_covariance_matrix(pts, MaternConfig())
        basis = kl_decompose(cov)
        resid = cov @ basis.eigenvectors - basis.eigenvectors * basis.eigenvalues
        assert np.max(np.abs(resid)) < 1e-8 * np.max(np.abs(cov))

    def test_asymmetric_rejected(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            kl_decompose(bad)

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            kl_decompose(np.diag([1.0, -0.5]))

    def test_tiny_negative_clamped(self):
        basis = kl_decompose(np.diag([1.0, -5e-11]))
        assert basis.eigenvalues[1] == 0.0


class TestSampleField:
    def test_truncation_bounds(self):
        basis = kl_decompose(np.eye(4))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_fields(basis, 0, 1, rng)
        with pytest.raises(ValueError):
            sample_fields(basis, 5, 1, rng)

    def test_full_truncation_identity_cov_is_standard_normal(self):
        basis = kl_decompose(np.eye(6))
        rng = np.random.default_rng(1)
        draws = sample_fields(basis, 6, 20000, rng)
        np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.03)
        np.testing.assert_allclose(draws.var(axis=0), 1.0, rtol=0.05)

    def test_empirical_covariance_matches_truncated_analytic(self):
        pts = np.linspace(0.0, 1.0, 16)
        cov = matern_covariance_matrix(pts, MaternConfig())
        basis = kl_decompose(cov)
        n = 8
        rng = np.random.default_rng(3)
        draws = sample_fields(basis, n, 10000, rng)
        emp = (draws.T @ draws) / draws.shape[0]
        target = basis.truncated_covariance(n)
        err = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert err < 0.05

    def test_matches_cholesky_oracle_moments(self):
        # full-rank sampling through the expansion vs. a Cholesky factor draw
        pts = np.linspace(0.0, 1.0, 10)
        cov = matern_covariance_matrix(pts, MaternConfig(nu=2.5, length=0.4, sigma=1.0))
        cov_reg = cov + 1e-12 * np.eye(10)
        basis = kl_decompose(cov_reg)
        rng = np.random.default_rng(5)
        ours = sample_fields(basis, 10, 10000, rng)
        chol = np.linalg.cholesky(cov_reg)
        oracle = rng.standard_normal(size=(10000, 10)) @ chol.T
        np.testing.assert_allclose(
            ours.mean(axis=0), oracle.mean(axis=0), atol=4 * 1.0 / np.sqrt(10000) * 3
        )
        np.testing.assert_allclose(ours.var(axis=0), oracle.var(axis=0), rtol=0.08)


class TestDensities:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            BoxPrior([0.0, 1.0], [1.0, 1.0])
        for lower in (float("nan"), -np.inf):
            with pytest.raises(ValueError):
                BoxPrior([lower], [1.0])

    def test_latent_dim_positive(self):
        with pytest.raises(ValueError):
            LatentPrior(0)

    def test_box_sampling_within(self):
        box = BoxPrior([100.0, 1e-4], [1900.0, 9e-4])
        rng = np.random.default_rng(7)
        draws = box.sample(rng, 100)
        assert draws.shape == (100, 2)
        assert np.all((draws >= box.lower) & (draws <= box.upper))


class TestKlBasisValidation:
    def test_rejects_increasing_eigenvalues(self):
        with pytest.raises(ValueError):
            KlBasis(np.array([1.0, 2.0]), np.eye(2))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            KlBasis(np.array([2.0, 1.0]), np.array([[1.0, 1.0], [0.0, 0.0]]))
