import numpy as np
import pytest

from mcgan.samplers import (
    Chain,
    HmcConfig,
    _leap,
    _Point,
    find_reasonable_epsilon,
    mh_sample,
    mh_step,
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
    pt = _leap(target, _Point(z, np.asarray(p, dtype=float), 0.0, target(z)[1]), eps)
    return pt.z, pt.p


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
        with pytest.raises(ValueError, match="non-finite"):
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

    def test_never_leaves_a_box_of_finite_density(self):
        # a standard normal cut to [-1, 1]^2: every leaf outside is divergent
        def boxed(z):
            logp = -0.5 * float(z @ z) if np.all(np.abs(z) <= 1.0) else -np.inf
            return logp, -z

        chain = nuts_sample(boxed, HmcConfig(warmup=200, seed=3), 2200, np.zeros(2))
        assert np.all(np.abs(chain.samples) <= 1.0)
        assert np.all(np.isfinite(chain.log_densities))
        assert chain.acceptance_rate > 0.5

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


class TestMh:
    def test_uniform_box_accepts_every_inside_proposal(self):
        def logp(z):
            return 0.0 if np.all(np.abs(z) <= 2.0) else -np.inf

        rng = np.random.default_rng(0)
        z = np.zeros(1)
        lp = 0.0
        for _ in range(200):
            z_new, lp, accepted = mh_step(logp, z, lp, 0.5, rng)
            inside = np.all(np.abs(z_new) <= 2.0)
            assert inside
            if not accepted:
                # only out-of-box proposals are refused under a flat density
                np.testing.assert_array_equal(z_new, z)
            z = z_new

    def test_acceptance_probability_from_mode(self):
        # from the mode of a standard normal, acceptance probability equals
        # E[min(1, exp(-w^2/2))], w ~ N(0, s^2); quadrature oracle below
        s = 1.0
        w = np.linspace(-8, 8, 20001)
        dens = np.exp(-0.5 * (w / s) ** 2) / (s * np.sqrt(2 * np.pi))
        expected = np.trapezoid(np.minimum(1.0, np.exp(-0.5 * w**2)) * dens, w)

        rng = np.random.default_rng(3)
        accepts = 0
        trials = 40000
        for _ in range(trials):
            _, _, acc = mh_step(
                lambda z: -0.5 * float(z @ z), np.zeros(1), 0.0, s, rng
            )
            accepts += acc
        assert abs(accepts / trials - expected) < 0.01

    def test_standard_normal_mean(self):
        chain = mh_sample(
            lambda z: -0.5 * float(z @ z), np.zeros(1), 100000, 1.0, seed=5,
            warmup=1000,
        )
        assert abs(chain.post_burn().mean()) < 0.02

    def test_proposal_std_validated(self):
        for std in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                mh_step(lambda z: 0.0, np.zeros(1), 0.0, std, np.random.default_rng(0))


class TestDetailedBalance:
    def test_three_state_chain(self):
        pi = np.array([0.2, 0.5, 0.3])
        rng = np.random.default_rng(11)
        state = 0
        counts = np.zeros((3, 3))
        steps = 300000
        for _ in range(steps):
            prop = (state + rng.integers(1, 3)) % 3  # uniform over the others
            if rng.uniform() < min(1.0, pi[prop] / pi[state]):
                nxt = prop
            else:
                nxt = state
            counts[state, nxt] += 1
            state = nxt
        flow = counts / steps
        for i in range(3):
            for j in range(i + 1, 3):
                scale = np.sqrt(flow[i, j] / steps) * 4 + 1e-4
                assert abs(flow[i, j] - flow[j, i]) < scale * 3


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
        rng = np.random.default_rng(0)
        eps = find_reasonable_epsilon(std_normal_target, np.zeros(5), rng)
        assert 0.01 < eps < 10.0
