import numpy as np
import pytest

from mcgan.autodiff import NonFiniteError, Tape, backward
from mcgan.bayes import (
    GaussianNoise,
    LatentPosterior,
    LinearGenerator,
    MapConfig,
    map_estimate,
    posterior_stats,
)
from mcgan.data import Normalization
from mcgan.forward import ObservationOp
from mcgan.gan import Generator
from mcgan.nnet import MlpSpec, init_params, mlp_hidden

LOG2PI = np.log(2 * np.pi)


def conjugate_posterior(a, idx, sigma, y):
    """Exact Gaussian posterior for z ~ N(0,I), y = (Az)[idx] + N(0, sigma^2)."""
    h = a[idx, :]
    prec = np.eye(a.shape[1]) + h.T @ h / sigma**2
    cov = np.linalg.inv(prec)
    mean = cov @ (h.T @ y) / sigma**2
    return mean, cov


def tape_logp_and_grad(post, z):
    """The latent log posterior and its gradient recorded on the tape: the oracle."""
    tape = Tape()
    z_node = tape.leaf(z)
    log_prior = z_node.square().sum().scale(-0.5) + tape.const(
        np.array(-0.5 * z.size * LOG2PI)
    )
    gen, idx = post.generator, post.op.indices
    if isinstance(gen, LinearGenerator):
        h = tape.const(gen.a[idx, :]) @ z_node + tape.const(gen.offset[idx])
    else:
        layers = [
            (tape.const(w), tape.const(b))
            for w, b in zip(gen.params.weights[:-1], gen.params.biases[:-1])
        ]
        hidden = mlp_hidden(layers, z_node)
        w = tape.const(gen.params.weights[-1].take(idx, axis=1))
        out = hidden @ w + tape.const(gen.params.biases[-1][idx])
        h = out * tape.const(gen.norm.state_scale[idx]) + tape.const(gen.norm.state_shift[idx])
    std = post.noise.expanded(idx.size)
    scaled = (tape.const(post.y) - h) * tape.const(1.0 / std)
    log_lik = scaled.square().sum().scale(-0.5) + tape.const(
        np.array(float(-np.sum(np.log(std)) - 0.5 * idx.size * LOG2PI))
    )
    node = log_lik + log_prior
    return float(node.value), backward(node, wrt=[z_node])[z_node.idx]


def mlp_generator(rng, param_tanh=False):
    n_state, n_param = 9, 3
    spec = MlpSpec((4, 16, 8, n_state + n_param))
    norm = Normalization(
        rng.normal(size=n_state), rng.uniform(0.5, 2.0, n_state),
        rng.normal(size=n_param), rng.uniform(0.5, 2.0, n_param), param_tanh,
    )
    return Generator(init_params(spec, rng), n_state, n_param, norm)


GENERATORS = {
    "leaky_relu": lambda rng: mlp_generator(rng),
    "tanh_param_head": lambda rng: mlp_generator(rng, param_tanh=True),
    "linear": lambda rng: LinearGenerator(rng.normal(size=(9, 4)), rng.normal(size=9)),
}


# a fixed seed per kind, so adding or removing a kind moves no other case's data
SEEDS = {"leaky_relu": 0, "linear": 1, "tanh_param_head": 2}


def observed_posterior(gen, rng):
    idx = np.array([7, 0, 3, 5, 8])
    std = rng.uniform(0.05, 0.3, idx.size)
    op = ObservationOp(indices=idx, state_len=gen.n_state)
    return LatentPosterior(gen, op, GaussianNoise(std), rng.normal(size=idx.size))


def state_log_likelihood(u, y, op, noise):
    """Data log-density of a state u: the log posterior at z = 0 of a generator
    that always returns u, less the one-dimensional latent prior's -log(2 pi)/2."""
    post = LatentPosterior(LinearGenerator(np.zeros((u.size, 1)), u), op, noise, y)
    return post.log_unnorm(np.zeros(1)) + 0.5 * LOG2PI


class TestLogLikelihood:
    def test_zero_residual_constant(self):
        op = ObservationOp(indices=[0, 2], state_len=4)
        u = np.array([1.0, 5.0, -2.0, 3.0])
        y = u[[0, 2]]
        assert state_log_likelihood(u, y, op, GaussianNoise(1.0)) == pytest.approx(-LOG2PI)

    def test_hand_evaluated_residual(self):
        op = ObservationOp(indices=[0, 1], state_len=2)
        u = np.zeros(2)
        y = np.array([3.0, 4.0])
        got = state_log_likelihood(u, y, op, GaussianNoise(1.0))
        assert got == pytest.approx(-12.5 - LOG2PI)

    def test_vector_noise(self):
        op = ObservationOp(indices=[0], state_len=1)
        got = state_log_likelihood(np.zeros(1), np.array([3000.0]), op, GaussianNoise(3000.0))
        assert got == pytest.approx(-0.5 - np.log(3000.0) - 0.5 * LOG2PI)

    def test_noise_validation(self):
        for std in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise std"):
                GaussianNoise(std)

    def test_per_channel_length_checked_at_construction(self):
        # the noise model is the one place that states the noise, so it is checked there
        op = ObservationOp(indices=[0, 1], state_len=2)
        with pytest.raises(ValueError, match="noise std length"):
            LatentPosterior(LinearGenerator(np.eye(2)), op, GaussianNoise([1.0, 2.0, 3.0]), [0.0, 0.0])


class TestLatentPosterior:
    def test_conjugate_identity_value(self):
        # G = identity, observe everything, y = 0, unit noise:
        # log post = -||z||^2 - Nz log 2pi, gradient -2 z
        dim = 3
        gen = LinearGenerator(np.eye(dim))
        op = ObservationOp(indices=np.arange(dim), state_len=dim)
        post = LatentPosterior(gen, op, GaussianNoise(1.0), np.zeros(dim))
        z = np.array([0.5, -1.0, 2.0])
        val, grad = post.logp_and_grad(z)
        assert val == pytest.approx(-np.dot(z, z) - dim * LOG2PI, rel=1e-12)
        assert post.log_unnorm(z) == val
        np.testing.assert_allclose(grad, -2.0 * z, rtol=1e-12)

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_matches_tape_bit_for_bit(self, kind):
        rng = np.random.default_rng(SEEDS[kind])
        post = observed_posterior(GENERATORS[kind](rng), rng)
        for _ in range(100):
            z = rng.standard_normal(4) * 1.5
            val, grad = post.logp_and_grad(z)
            ref_val, ref_grad = tape_logp_and_grad(post, z)
            assert val == ref_val
            assert post.log_unnorm(z) == ref_val
            np.testing.assert_array_equal(grad, ref_grad)

    def test_builds_no_tape(self, monkeypatch):
        rng = np.random.default_rng(0)
        post = observed_posterior(mlp_generator(rng), rng)

        def no_tape(self):
            raise AssertionError("the latent posterior built a tape")

        monkeypatch.setattr(Tape, "__init__", no_tape)
        post.logp_and_grad(np.zeros(4))
        post.log_unnorm(np.zeros(4))

    def test_non_finite_latent_rejected(self):
        rng = np.random.default_rng(1)
        post = observed_posterior(mlp_generator(rng), rng)
        z = np.array([0.0, np.nan, 0.0, 0.0])
        with pytest.raises(NonFiniteError):
            post.logp_and_grad(z)
        with pytest.raises(NonFiniteError):
            post.log_unnorm(z)

    @pytest.mark.parametrize("kind", ["leaky_relu", "linear"])
    def test_index_outside_state_block_fails_at_construction(self, kind):
        rng = np.random.default_rng(3)
        gen = mlp_generator(rng) if kind == "leaky_relu" else LinearGenerator(
            rng.normal(size=(12, 4)), n_param=3
        )
        # index 10 lies in the parameter block of the 12-wide row
        op = ObservationOp(indices=[2, 10], state_len=12)
        with pytest.raises(IndexError, match="state block"):
            LatentPosterior(gen, op, GaussianNoise(0.1), np.zeros(2))

    def test_head_sliced_once_per_posterior(self, monkeypatch):
        calls = []
        head = Generator._head

        def spy(self, idx):
            calls.append(idx)
            return head(self, idx)

        monkeypatch.setattr(Generator, "_head", spy)
        rng = np.random.default_rng(0)
        post = observed_posterior(mlp_generator(rng), rng)
        for _ in range(100):
            post.logp_and_grad(rng.standard_normal(4))
        assert len(calls) == 1

    def test_gradient_matches_analytic_linear_gaussian(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 3))
        idx = np.array([0, 2, 5])
        sigma = 0.7
        y = rng.normal(size=3)
        gen = LinearGenerator(a)
        op = ObservationOp(indices=idx, state_len=6)
        post = LatentPosterior(gen, op, GaussianNoise(sigma), y)
        z = rng.normal(size=3)
        _, grad = post.logp_and_grad(z)
        h = a[idx, :]
        expected = h.T @ (y - h @ z) / sigma**2 - z
        np.testing.assert_allclose(grad, expected, rtol=1e-10, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 2))
        gen = LinearGenerator(a)
        op = ObservationOp(indices=[1, 3], state_len=5)
        post = LatentPosterior(gen, op, GaussianNoise(0.5), rng.normal(size=2))
        z = rng.normal(size=2)
        _, grad = post.logp_and_grad(z)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (post.log_unnorm(z + e) - post.log_unnorm(z - e)) / (2 * h)
            assert abs(grad[i] - fd) / max(abs(fd), 1e-8) < 1e-5

    def test_dimension_mismatch_rejected(self):
        gen = LinearGenerator(np.eye(2))
        op = ObservationOp(indices=[0], state_len=2)
        with pytest.raises(ValueError):
            LatentPosterior(gen, op, GaussianNoise(1.0), np.zeros(3))


class TestMapEstimate:
    def test_pure_prior_mode_is_origin(self):
        # the latent point cannot move the one observation: the prior, shifted
        op = ObservationOp(indices=[0], state_len=4)
        post = LatentPosterior(LinearGenerator(np.zeros((4, 4))), op, GaussianNoise(1.0), [0.3])
        z = map_estimate(post, MapConfig(steps=200, restarts=3, seed=1))
        np.testing.assert_allclose(z, 0.0, atol=1e-6)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(8, 4))
        idx = np.arange(8)
        sigma = 0.5
        z_true = rng.normal(size=4)
        y = a @ z_true + rng.normal(0, sigma, size=8)
        gen = LinearGenerator(a)
        op = ObservationOp(indices=idx, state_len=8)
        post = LatentPosterior(gen, op, GaussianNoise(sigma), y)
        z_map = map_estimate(post, MapConfig(steps=3000, restarts=3, seed=2))
        mean, _ = conjugate_posterior(a, idx, sigma, y)
        np.testing.assert_allclose(z_map, mean, atol=1e-6)

    def test_objective_beats_every_start(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 3))
        gen = LinearGenerator(a)
        op = ObservationOp(indices=np.arange(5), state_len=5)
        post = LatentPosterior(gen, op, GaussianNoise(1.0), rng.normal(size=5))
        cfg = MapConfig(steps=100, restarts=5, seed=11)
        z_map = map_estimate(post, cfg)
        best = post.log_unnorm(z_map)
        starts = np.random.default_rng(cfg.seed).standard_normal((cfg.restarts, 3))
        for s in starts:
            assert best >= post.log_unnorm(s) - 1e-12

    def test_observation_shift_moves_map_like_conjugate_solution(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(4, 4)) + 2 * np.eye(4)
        idx = np.arange(4)
        sigma = 0.8
        y = rng.normal(size=4)
        shift = 1.5
        gen = LinearGenerator(a)
        op = ObservationOp(indices=idx, state_len=4)
        cfg = MapConfig(steps=4000, restarts=2, seed=0)
        z1 = map_estimate(post1 := LatentPosterior(gen, op, GaussianNoise(sigma), y), cfg)
        z2 = map_estimate(
            LatentPosterior(gen, op, GaussianNoise(sigma), y + shift), cfg
        )
        m1, _ = conjugate_posterior(a, idx, sigma, y)
        m2, _ = conjugate_posterior(a, idx, sigma, y + shift)
        np.testing.assert_allclose(
            gen.push(z2) - gen.push(z1), a @ (m2 - m1), atol=1e-5
        )
        assert post1.log_unnorm(z1) >= post1.log_unnorm(m1) - 1e-10

    def test_programming_error_propagates(self):
        # only NonFiniteError means a point of non-finite density
        for error in (TypeError, ValueError):

            class Broken(LatentPosterior):
                def logp_and_grad(self, z):
                    raise error("broken target")

            op = ObservationOp(indices=[0], state_len=2)
            post = Broken(LinearGenerator(np.eye(2)), op, GaussianNoise(1.0), [0.0])
            with pytest.raises(error, match="broken target"):
                map_estimate(post, MapConfig(steps=5, restarts=2))

    @staticmethod
    def failing_starts(n_bad):
        """A conjugate posterior whose first n_bad gradient calls are non-finite."""

        class Flaky(LatentPosterior):
            calls = 0

            def logp_and_grad(self, z):
                self.calls += 1
                if self.calls <= n_bad:
                    raise NonFiniteError("non-finite log posterior")
                return super().logp_and_grad(z)

        rng = np.random.default_rng(8)
        a = rng.normal(size=(6, 3))
        op = ObservationOp(indices=np.arange(6), state_len=6)
        return Flaky(LinearGenerator(a), op, GaussianNoise(0.5), rng.normal(size=6)), a

    def test_non_finite_start_skips_its_restart(self):
        post, a = self.failing_starts(1)
        z_map = map_estimate(post, MapConfig(steps=3000, restarts=2, seed=2))
        mean, _ = conjugate_posterior(a, np.arange(6), 0.5, post.y)
        np.testing.assert_allclose(z_map, mean, atol=1e-6)

    def test_every_start_non_finite_raises(self):
        post, _ = self.failing_starts(3)
        with pytest.raises(RuntimeError, match="every MAP restart"):
            map_estimate(post, MapConfig(steps=5, restarts=3))


class TestPosteriorStats:
    def test_single_sample_identity(self):
        a = np.array([[2.0], [3.0]])
        gen = LinearGenerator(a)
        z = np.array([[1.5]])
        stats = posterior_stats(z, gen)
        np.testing.assert_allclose(stats.q_mean, [3.0, 4.5])
        np.testing.assert_allclose(stats.q_std, 0.0)

    def test_conjugate_mean_within_monte_carlo_error(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 3))
        idx = np.array([0, 1, 4])
        sigma = 0.6
        y = rng.normal(size=3)
        mean, cov = conjugate_posterior(a, idx, sigma, y)
        n = 20000
        zs = rng.multivariate_normal(mean, cov, size=n)
        gen = LinearGenerator(a)
        stats = posterior_stats(zs, gen)
        push_mean = a @ mean
        push_cov = a @ cov @ a.T
        se = np.sqrt(np.diag(push_cov) / n)
        assert np.all(np.abs(stats.q_mean - push_mean) < 3 * se + 1e-12)

    def test_requires_samples(self):
        gen = LinearGenerator(np.eye(2))
        with pytest.raises(ValueError):
            posterior_stats(np.zeros((0, 2)), gen)
