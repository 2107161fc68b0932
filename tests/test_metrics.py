import numpy as np
import pytest
from scipy.stats import wasserstein_distance

from mcgan.bayes import GaussianNoise, LatentPosterior, LinearGenerator
from mcgan.forward import ObservationOp
from mcgan.metrics import pushforward_equality_test, randomized_bound_trials, w1_empirical_1d


@pytest.mark.parametrize("dim", [1, 2])
def test_pushforward_equality_on_conjugate_posterior(dim):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(4, dim))
    idx = np.array([0, 2, 3])
    sigma = 0.8
    y = rng.normal(size=idx.size)
    op = ObservationOp(indices=idx, state_len=4)
    post = LatentPosterior(LinearGenerator(a), op, GaussianNoise(sigma), y)
    h = a[idx, :]
    cov = np.linalg.inv(np.eye(dim) + h.T @ h / sigma**2)
    mean = cov @ h.T @ y / sigma**2
    draws = rng.multivariate_normal(mean, cov, size=4000)
    report = pushforward_equality_test(post, draws)
    for i, expected in enumerate(a @ mean):
        assert abs(report["functions"][f"coord_{i}"]["quad_latent"] - expected) < 1e-12
    assert report["max_mcmc_sigmas"] < 4.0


def test_stability_bound_never_violated():
    assert randomized_bound_trials(300, seed=0)["violations"] == 0


@pytest.mark.parametrize("sizes", [(200, 200), (150, 330)])
def test_w1_empirical_matches_scipy(sizes):
    rng = np.random.default_rng(sizes[1])
    a = rng.normal(size=sizes[0])
    b = rng.gamma(2.0, size=sizes[1])
    assert abs(w1_empirical_1d(a, b) - wasserstein_distance(a, b)) < 1e-12
