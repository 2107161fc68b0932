import math
from dataclasses import dataclass

import numpy as np
import pytest

from mcgan.autodiff import NonFiniteError
from mcgan.bayes import GaussianNoise, LatentPosterior
from mcgan.data import Normalization
from mcgan.forward import ObservationOp
from mcgan.gan import Generator
from mcgan.nnet import MlpSpec, init_params
from mcgan.samplers import (
    Chain,
    HmcConfig,
    _initial_step,
    _leap,
    nuts_sample,
)


def std_normal_target(z):
    z = np.asarray(z, dtype=float)
    return -0.5 * float(np.dot(z, z)), -z


def leapfrog(z, p, eps, grad_u):
    """One step of the sampler's leapfrog on the potential whose gradient is grad_u."""

    def target(x):
        return 0.0, -np.asarray(grad_u(x), dtype=float)

    z = np.asarray(z, dtype=float)
    z, p, _, _, _ = _leap(target, z, np.asarray(p, dtype=float), target(z)[1], eps)
    return z, p


def correlated_gaussian_target(rho):
    cov = np.array([[1.0, rho], [rho, 1.0]])
    prec = np.linalg.inv(cov)

    def target(z):
        return -0.5 * float(z @ prec @ z), -prec @ z

    return target, cov


class TestLeapfrog:
    def test_free_particle(self):
        z = np.array([1.0, 2.0])
        p = np.array([0.5, -0.25])
        z2, p2 = leapfrog(z, p, 0.3, lambda _: np.zeros(2))
        np.testing.assert_allclose(p2, p)
        np.testing.assert_allclose(z2, z + 0.3 * p)

    def test_reversibility(self):
        grad_u = lambda z: z  # harmonic potential
        z = np.array([0.7, -1.2])
        p = np.array([0.3, 0.9])
        z1, p1 = leapfrog(z, p, 0.17, grad_u)
        z0, p0 = leapfrog(z1, -p1, 0.17, grad_u)
        np.testing.assert_allclose(z0, z, atol=1e-12)
        np.testing.assert_allclose(p0, -p, atol=1e-12)

    def test_harmonic_energy_error_is_second_order(self):
        def max_energy_err(eps, steps=100):
            z = np.array([1.0])
            p = np.array([0.0])
            h0 = 0.5 * (z @ z + p @ p)
            worst = 0.0
            for _ in range(steps):
                z, p = leapfrog(z, p, eps, lambda q: q)
                worst = max(worst, abs(0.5 * (z @ z + p @ p) - h0))
            return worst

        e1 = max_energy_err(0.1)
        e2 = max_energy_err(0.05, steps=200)
        assert e1 < 0.01
        assert 3.0 < e1 / e2 < 5.0

    def test_volume_preservation_linear_gradient(self):
        # one step of the map (z, p) -> leapfrog is linear for U = 0.5 z^T D z;
        # its Jacobian determinant must equal one exactly
        d = np.array([2.0, 0.5])
        eps = 0.3

        def step(v):
            z, p = v[:2], v[2:]
            z2, p2 = leapfrog(z, p, eps, lambda q: d * q)
            return np.concatenate([z2, p2])

        jac = np.column_stack([step(e) for e in np.eye(4)])
        assert abs(np.linalg.det(jac) - 1.0) < 1e-12

    def test_nonfinite_gradient_rejected(self):
        # a finite start gradient, then a NaN at the end point
        with pytest.raises(NonFiniteError, match="non-finite"):
            leapfrog(np.zeros(1), np.ones(1), 0.1, lambda z: np.array([np.nan]) if z[0] else z)


class TestNuts:
    def test_correlated_gaussian_covariance(self):
        target, cov = correlated_gaussian_target(0.9)
        cfg = HmcConfig(warmup=1000, seed=7)
        chain = nuts_sample(target, cfg, 21000, np.zeros(2))
        kept = chain.post_burn()
        emp = np.cov(kept.T)
        assert abs(emp[0, 1] - cov[0, 1]) / abs(cov[0, 1]) < 0.1
        assert np.all(np.abs(np.diag(emp) - 1.0) < 0.15)

    def test_seed_determinism_bit_identical(self):
        target, _ = correlated_gaussian_target(0.5)
        cfg = HmcConfig(warmup=100, seed=42)
        a = nuts_sample(target, cfg, 400, np.zeros(2))
        b = nuts_sample(target, cfg, 400, np.zeros(2))
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.log_densities, b.log_densities)

    def test_burn_in_flagging(self):
        cfg = HmcConfig(warmup=50, seed=0)
        chain = nuts_sample(std_normal_target, cfg, 200, np.zeros(1))
        assert chain.burn_in == 50
        assert chain.post_burn().shape == (150, 1)

    @staticmethod
    def assert_stays_in_box(boxed):
        chain = nuts_sample(boxed, HmcConfig(warmup=200, seed=3), 2200, np.zeros(2))
        assert np.all(np.abs(chain.samples) <= 1.0)
        assert np.all(np.isfinite(chain.log_densities))
        assert chain.acceptance_rate > 0.5

    def test_never_leaves_a_box_of_finite_density(self):
        # a standard normal cut to [-1, 1]^2: every leaf outside is divergent
        def boxed(z):
            logp = -0.5 * float(z @ z) if np.all(np.abs(z) <= 1.0) else -np.inf
            return logp, -z

        self.assert_stays_in_box(boxed)

    def test_non_finite_error_is_a_divergent_leaf(self):
        # the latent posterior reports a non-finite value as NonFiniteError, a RuntimeError
        def boxed(z):
            if not np.all(np.abs(z) <= 1.0):
                raise NonFiniteError("non-finite log posterior")
            return -0.5 * float(z @ z), -z

        self.assert_stays_in_box(boxed)

    @pytest.mark.parametrize("warmup", [0, 10])
    @pytest.mark.parametrize("bad", ["logp", "grad"])
    def test_non_finite_start_rejected(self, bad, warmup):
        def target(z):
            if bad == "logp":
                return -np.inf, -z
            return 0.0, np.full_like(z, np.nan)

        with pytest.raises(ValueError, match="start point"):
            nuts_sample(target, HmcConfig(warmup=warmup, seed=0), 20, np.ones(2))

    @pytest.mark.parametrize("error", [TypeError, ValueError])
    def test_programming_error_propagates(self, error):
        # only NonFiniteError makes a divergent leaf; any other error is a bug
        def boxed(z):
            if not np.all(np.abs(z) <= 1.0):
                raise error("broken target")
            return -0.5 * float(z @ z), -z

        with pytest.raises(error, match="broken target"):
            nuts_sample(boxed, HmcConfig(warmup=200, seed=3), 2200, np.zeros(2))

    def test_start_point_evaluated_once(self):
        z0 = np.array([0.3, -0.4])
        starts = []

        def target(z):
            starts.append(np.array_equal(z, z0))
            return std_normal_target(z)

        nuts_sample(target, HmcConfig(warmup=10, seed=0), 20, z0)
        assert sum(starts) == 1 and starts[0]

    def test_all_divergent_warmup_raises(self):
        # finite only at the start point, so every leapfrog leaf diverges
        def point(z):
            return (-np.inf if np.any(z) else 0.0), np.zeros_like(z)

        with pytest.raises(RuntimeError, match="every warmup step diverged"):
            nuts_sample(point, HmcConfig(warmup=10, seed=0), 20, np.zeros(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            nuts_sample(std_normal_target, HmcConfig(warmup=10), 5, np.zeros(1))
        with pytest.raises(ValueError):
            HmcConfig(target_accept=1.5)


class TestErgodicAverage:
    def test_second_moment_of_standard_normal(self):
        chain = nuts_sample(std_normal_target, HmcConfig(warmup=1000, seed=9), 21000, np.zeros(1))
        vals = np.array([float(z @ z) for z in chain.post_burn()])
        nb = 20
        bm = vals[: (vals.size // nb) * nb].reshape(nb, -1).mean(axis=1)
        se = bm.std(ddof=1) / np.sqrt(nb)
        assert abs(vals.mean() - 1.0) < 3 * se

    def test_empty_post_burn_rejected(self):
        # an average over the kept draws needs at least one
        with pytest.raises(ValueError, match="burn-in"):
            Chain(np.zeros((5, 1)), np.zeros(5), np.ones(5, bool), 5)


class TestChainIo:
    def test_find_reasonable_epsilon_sane(self):
        # _initial_step is Hoffman & Gelman's FindReasonableEpsilon (Algorithm 4)
        z = np.zeros(5)
        eps = _initial_step(std_normal_target, z, *std_normal_target(z), np.random.default_rng(0))
        assert 0.01 < eps < 10.0


# The recursive no-U-turn sampler that the unrolled doubling replaced, kept as
# its oracle: every draw, log density, move flag and target call must agree.
@dataclass(slots=True)
class Point:
    z: np.ndarray
    p: np.ndarray
    logp: float
    grad: np.ndarray


@dataclass(slots=True)
class Tree:
    minus: Point
    plus: Point
    proposal: Point
    log_weight: float
    alpha_sum: float
    n_alpha: int
    turning: bool
    divergent: bool


def rec_leap(target, pt: Point, eps: float) -> Point:
    p = pt.p + 0.5 * eps * pt.grad
    z = pt.z + eps * p
    logp, grad = target(z)
    grad = np.asarray(grad, dtype=float)
    if not np.isfinite(grad).all():
        raise NonFiniteError("non-finite potential gradient in leapfrog")
    p = p + 0.5 * eps * grad
    return Point(z=z, p=p, logp=float(logp), grad=grad)


def energy(pt: Point) -> float:
    return -pt.logp + 0.5 * float(pt.p @ pt.p)


def rec_epsilon(target, z, logp, grad, rng) -> float:
    eps = 1.0
    p = rng.standard_normal(z.shape)
    pt = Point(z=z, p=p, logp=float(logp), grad=np.asarray(grad, float))
    h0 = energy(pt)

    def log_ratio(e):
        try:
            nxt = rec_leap(target, pt, e)
        except NonFiniteError:
            return -np.inf
        h1 = energy(nxt)
        return h0 - h1 if np.isfinite(h1) else -np.inf

    direction = 1.0 if log_ratio(eps) > np.log(0.5) else -1.0
    for _ in range(60):
        if direction * log_ratio(eps) <= direction * np.log(0.5):
            break
        eps *= 2.0**direction
    return eps


def merge(first: Tree, second: Tree, direction, rng) -> Tree:
    minus = first.minus if direction > 0 else second.minus
    plus = second.plus if direction > 0 else first.plus
    merged = Tree(
        minus, plus, first.proposal, -np.inf, first.alpha_sum + second.alpha_sum,
        first.n_alpha + second.n_alpha, turning=True, divergent=second.divergent,
    )
    if second.divergent or second.turning:
        return merged
    merged.log_weight = float(np.logaddexp(first.log_weight, second.log_weight))
    if np.log(rng.uniform()) < second.log_weight - merged.log_weight:
        merged.proposal = second.proposal
    dz = plus.z - minus.z
    merged.turning = bool(dz @ minus.p < 0.0 or dz @ plus.p < 0.0)
    return merged


def build_tree(target, pt, direction, depth, eps, h0, rng) -> Tree:
    if depth == 0:
        try:
            nxt = rec_leap(target, pt, direction * eps)
            h1 = energy(nxt)
        except NonFiniteError:
            h1 = np.inf
            nxt = pt
        delta = h1 - h0
        finite = math.isfinite(delta)
        divergent = not finite or delta > 1000.0
        log_w = -delta if finite else -math.inf
        alpha = float(np.exp(min(0.0, -delta))) if finite else 0.0
        return Tree(nxt, nxt, nxt, log_w, alpha, 1, turning=False, divergent=divergent)
    first = build_tree(target, pt, direction, depth - 1, eps, h0, rng)
    if first.divergent or first.turning:
        return first
    start = first.plus if direction > 0 else first.minus
    second = build_tree(target, start, direction, depth - 1, eps, h0, rng)
    return merge(first, second, direction, rng)


def recursive_nuts(target, cfg: HmcConfig, n_samples: int, z0) -> Chain:
    rng = np.random.default_rng(cfg.seed)
    z = np.asarray(z0, dtype=float).copy()
    logp, grad = target(z)
    logp, grad = float(logp), np.asarray(grad, dtype=float)
    eps = rec_epsilon(target, z, logp, grad, rng)
    mu = np.log(10.0 * eps)
    log_eps_bar, h_bar = 0.0, 0.0
    samples = np.empty((n_samples, z.size))
    logps = np.empty(n_samples)
    moved = np.zeros(n_samples, dtype=bool)
    for m in range(n_samples):
        current = Point(z=z, p=rng.standard_normal(z.size), logp=logp, grad=grad)
        h0 = energy(current)
        tree = Tree(current, current, current, 0.0, 0.0, 0, turning=False, divergent=False)
        for depth in range(cfg.max_tree_depth):
            direction = 1 if rng.uniform() < 0.5 else -1
            start = tree.plus if direction > 0 else tree.minus
            sub = build_tree(target, start, direction, depth, eps, h0, rng)
            tree = merge(tree, sub, direction, rng)
            if tree.turning:
                break
        moved[m] = tree.proposal is not current
        z, logp, grad = tree.proposal.z, tree.proposal.logp, tree.proposal.grad
        samples[m] = z
        logps[m] = logp
        accept_stat = tree.alpha_sum / max(tree.n_alpha, 1)
        if m < cfg.warmup:
            frac = 1.0 / (m + 11.0)
            h_bar = (1.0 - frac) * h_bar + frac * (cfg.target_accept - accept_stat)
            log_eps = mu - np.sqrt(m + 1.0) / 0.05 * h_bar
            eta = (m + 1.0) ** (-0.75)
            log_eps_bar = eta * log_eps + (1.0 - eta) * log_eps_bar
            eps = float(np.exp(log_eps))
        elif m == cfg.warmup and cfg.warmup > 0:
            eps = float(np.exp(log_eps_bar))
    return Chain(samples, logps, moved, cfg.warmup)


def oracle_targets():
    """Name -> (target, z0): smooth, cut, non-finite, raising and funnel-shaped."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8))
    prec = a @ a.T / 8 + 0.1 * np.eye(8)

    def gauss(z):
        return -0.5 * float(z @ prec @ z), -prec @ z

    def box(z):
        return (-0.5 * float(z @ z) if np.all(np.abs(z) <= 1.0) else -np.inf), -z

    def nan_grad(z):
        return -0.5 * float(z @ z), (-z if np.all(np.abs(z) <= 1.5) else np.full_like(z, np.nan))

    def inf_grad(z):
        grad = -z
        if not np.all(np.abs(z) <= 1.5):
            grad[0] = np.inf
        return -0.5 * float(z @ z), grad

    def raising(z):
        if not np.all(np.abs(z) <= 1.2):
            raise NonFiniteError("outside the support")
        return -0.5 * float(z @ z), -z

    def funnel(z):
        v, x = z[0], z[1:]
        scale, xx = np.exp(-v), float(x @ x)
        grad = np.concatenate([[-v / 9.0 + 0.5 * xx * scale - 0.5 * x.size], -x * scale])
        return -v * v / 18.0 - 0.5 * xx * scale - 0.5 * x.size * v, grad

    n_state, n_param = 9, 3
    norm = Normalization(
        rng.normal(size=n_state), rng.uniform(0.5, 2.0, n_state),
        rng.normal(size=n_param), rng.uniform(0.5, 2.0, n_param), False,
    )
    gen = Generator(init_params(MlpSpec((4, 16, 8, n_state + n_param)), rng), n_state, n_param, norm)
    idx = np.array([7, 0, 3, 5, 8])
    std = rng.uniform(0.05, 0.3, idx.size)
    op = ObservationOp(indices=idx, state_len=n_state)
    post = LatentPosterior(gen, op, GaussianNoise(std), rng.normal(size=idx.size))

    z8 = np.zeros(8)
    return {
        "gauss": (gauss, z8), "box": (box, z8), "nan_grad": (nan_grad, z8),
        "inf_grad": (inf_grad, z8), "raising": (raising, z8), "funnel": (funnel, z8),
        "posterior": (post.logp_and_grad, np.zeros(4)),
    }


ORACLE_TARGETS = oracle_targets()


class TestRecursiveOracle:
    @pytest.mark.parametrize("depth", [1, 3, 10])
    @pytest.mark.parametrize("name", sorted(ORACLE_TARGETS))
    def test_bit_equal_to_recursive_doubling(self, name, depth):
        fn, z0 = ORACLE_TARGETS[name]
        for seed in (depth, depth + 100):
            runs = []
            for sampler in (recursive_nuts, nuts_sample):
                calls = []

                def target(z):
                    calls.append(None)
                    return fn(z)

                chain = sampler(target, HmcConfig(warmup=30, max_tree_depth=depth, seed=seed), 60, z0)
                runs.append((chain.samples, chain.log_densities, chain.accepted, len(calls)))
            (s0, lp0, m0, n0), (s1, lp1, m1, n1) = runs
            np.testing.assert_array_equal(s1, s0)
            np.testing.assert_array_equal(lp1, lp0)
            np.testing.assert_array_equal(m1, m0)
            assert n1 == n0
