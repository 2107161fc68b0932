"""Scoring and theory validation.

Two families of checks live here besides plain scores:

* the pushforward-equality test: expectations of test functions of G(z),
  computed by trapezoid quadrature of the latent posterior on a dense grid,
  must agree with their chain means, within batch-mean standard errors;
* the posterior-stability bound check on small discrete spaces: with both the
  prior and the likelihood perturbed, the Wasserstein-1 distance between the
  exact posteriors must stay below the constant-weighted sum of the prior
  and log-likelihood perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "rrmse",
    "w1_empirical_1d",
    "w1_discrete_line",
    "BoundConstants",
    "posterior_bound_check",
    "randomized_bound_trials",
    "pushforward_equality_test",
    "default_test_functions",
]


def rrmse(approx: np.ndarray, truth: np.ndarray) -> float:
    """Relative root mean squared error: ||approx - truth|| / ||truth||."""
    a = np.asarray(approx, dtype=float).ravel()
    t = np.asarray(truth, dtype=float).ravel()
    if a.shape != t.shape:
        raise ValueError("vectors must have equal length")
    denom = float(np.sqrt(np.sum(t * t)))
    if denom == 0.0:
        raise ZeroDivisionError("reference vector has zero norm")
    return float(np.sqrt(np.sum((a - t) ** 2)) / denom)


def w1_empirical_1d(a, b) -> float:
    """Exact Wasserstein-1 between two empirical distributions on the line.

    Equal sample counts reduce to the mean absolute difference of the sorted
    samples; otherwise the piecewise-constant CDF area is integrated.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample set")
    if a.size == b.size:
        return float(np.mean(np.abs(a - b)))
    xs = np.unique(np.concatenate([a, b]))
    fa = np.searchsorted(a, xs, side="right") / a.size
    fb = np.searchsorted(b, xs, side="right") / b.size
    return float(np.sum(np.abs(fa - fb)[:-1] * np.diff(xs)))


def w1_discrete_line(points, pa, pb) -> float:
    """W1 between two probability vectors supported on sorted line points."""
    x = np.asarray(points, dtype=float)
    diff = np.cumsum(np.asarray(pa, dtype=float) - np.asarray(pb, dtype=float))
    return float(np.sum(np.abs(diff[:-1]) * np.diff(x)))


# ---------------------------------------------------------------------------
# Posterior stability bound on a discrete line
# ---------------------------------------------------------------------------


@dataclass
class BoundConstants:
    diameter: float
    lip_phi_r: float
    lip_phi_g: float
    evidence_r: float
    evidence_g: float
    prior_w1_seminorm: float
    prior_w2_seminorm: float
    eps1: float
    eps2: float
    eps3: float
    c1: float
    c2: float
    c3: float
    lhs: float
    rhs: float
    holds: bool


def _lipschitz_on_line(x: np.ndarray, f: np.ndarray) -> float:
    slopes = np.abs(np.diff(f)) / np.diff(x)
    return float(np.max(slopes)) if slopes.size else 0.0


def _w_seminorm(x: np.ndarray, rho: np.ndarray, q: int) -> float:
    best = np.inf
    for x0 in x:
        val = np.sum(np.abs(x - x0) ** q * rho) ** (1.0 / q)
        best = min(best, float(val))
    return best


def posterior_bound_check(points, prior_r, prior_g, phi_r, phi_g) -> BoundConstants:
    """Exact posterior comparison on a discrete line against the stability bound.

    Likelihood factors must be positive and at most one (they are treated as
    exp(-l) with nonnegative l).  Both posteriors are normalized exactly; the
    verdict compares their W1 distance with c1 eps1 + c2 eps2 + c3 eps3.
    """
    x = np.asarray(points, dtype=float)
    order = np.argsort(x)
    x = x[order]
    if np.any(np.diff(x) <= 0):
        raise ValueError("support points must be distinct")
    rho_r = np.asarray(prior_r, dtype=float)[order]
    rho_g = np.asarray(prior_g, dtype=float)[order]
    phi_r = np.asarray(phi_r, dtype=float)[order]
    phi_g = np.asarray(phi_g, dtype=float)[order]
    for rho in (rho_r, rho_g):
        if np.any(rho < 0) or not np.isclose(rho.sum(), 1.0):
            raise ValueError("priors must be probability vectors")
    if np.any(phi_r <= 0) or np.any(phi_g <= 0):
        raise ValueError("likelihood factors must be strictly positive")
    if np.any(phi_r > 1.0 + 1e-12) or np.any(phi_g > 1.0 + 1e-12):
        raise ValueError("likelihood factors must not exceed one")

    q_r = float(np.sum(phi_r * rho_r))
    q_g = float(np.sum(phi_g * rho_g))
    if q_r == 0.0 or q_g == 0.0:
        raise ZeroDivisionError("zero evidence")
    post_r = phi_r * rho_r / q_r
    post_g = phi_g * rho_g / q_g

    l_r = -np.log(phi_r)
    l_g = -np.log(phi_g)
    eps1 = w1_discrete_line(x, rho_r, rho_g)
    eps2 = float(np.sum(np.abs(l_r - l_g) * rho_g))
    eps3 = float(np.sqrt(np.sum((l_r - l_g) ** 2 * rho_g)))

    diameter = float(x[-1] - x[0])
    lip_r = _lipschitz_on_line(x, phi_r)
    lip_g = _lipschitz_on_line(x, phi_g)
    phi_max = float(max(phi_r.max(), phi_g.max()))
    w1_semi = _w_seminorm(x, rho_g, 1)
    w2_semi = _w_seminorm(x, rho_g, 2)

    c1 = (1.0 + diameter * lip_r) / q_r
    c2 = phi_max / (q_r * q_g) * (1.0 + diameter * lip_r) * w1_semi
    c3 = phi_max / q_g * w2_semi

    lhs = w1_discrete_line(x, post_r, post_g)
    rhs = c1 * eps1 + c2 * eps2 + c3 * eps3
    return BoundConstants(
        diameter=diameter,
        lip_phi_r=lip_r,
        lip_phi_g=lip_g,
        evidence_r=q_r,
        evidence_g=q_g,
        prior_w1_seminorm=w1_semi,
        prior_w2_seminorm=w2_semi,
        eps1=eps1,
        eps2=eps2,
        eps3=eps3,
        c1=c1,
        c2=c2,
        c3=c3,
        lhs=lhs,
        rhs=rhs,
        holds=bool(lhs <= rhs * (1 + 1e-12) + 1e-15),
    )


def randomized_bound_trials(
    n_trials: int, seed: int = 0, max_points: int = 64
) -> dict:
    """Randomized discrete priors/likelihoods; counts bound violations."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst_margin = np.inf
    for _ in range(n_trials):
        n = int(rng.integers(3, max_points + 1))
        x = np.sort(rng.uniform(-2.0, 2.0, size=n))
        x += np.arange(n) * 1e-9  # guarantee distinct
        rho_r = rng.dirichlet(np.full(n, 0.8))
        rho_g = rng.dirichlet(np.full(n, 0.8))
        l_r = rng.uniform(0.0, 3.0, size=n)
        l_g = l_r + rng.normal(0.0, 0.5, size=n)
        phi_r = np.exp(-l_r)
        phi_g = np.exp(-np.clip(l_g, 0.0, None))
        res = posterior_bound_check(x, rho_r, rho_g, phi_r, phi_g)
        if not res.holds:
            violations += 1
        worst_margin = min(worst_margin, res.rhs - res.lhs)
    return {
        "trials": n_trials,
        "violations": violations,
        "worst_margin": float(worst_margin),
    }


# ---------------------------------------------------------------------------
# Pushforward equality
# ---------------------------------------------------------------------------


def default_test_functions(n_out: int, seed: int = 123):
    """Coordinates, squared coordinates, and one fixed random smooth 1-Lipschitz map.

    The map is smooth because a kink would break the trapezoid rule's spectral
    accuracy, on which the half-grid guard of the quadrature relies.
    """
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n_out)
    w /= np.sum(np.abs(w))
    center = rng.normal(size=n_out)

    fns = []
    for i in range(n_out):
        fns.append(("coord_%d" % i, lambda u, i=i: u[..., i]))
    for i in range(n_out):
        fns.append(("square_%d" % i, lambda u, i=i: u[..., i] ** 2))
    fns.append(("lipschitz", lambda u: (np.sqrt(1.0 + (u - center) ** 2) - 1.0) @ np.abs(w)))
    return fns


def _latent_grid(dim: int, half_width: float, n: int):
    g = np.linspace(-half_width, half_width, n)
    step = g[1] - g[0]
    w1 = np.full(n, step)
    w1[0] = w1[-1] = step / 2  # trapezoid ends
    if dim == 1:
        return g[:, None], w1
    zz = np.array(np.meshgrid(g, g, indexing="ij"))
    pts = zz.reshape(2, -1).T
    w = np.outer(w1, w1).ravel()
    return pts, w


def pushforward_equality_test(
    post,
    chain_samples: np.ndarray,
    fs=None,
    half_width: float = 8.0,
    n_grid: int = 241,
    richardson_tol: float = 1e-6,
) -> dict:
    """Check chain means of f(G(z)) against their latent-posterior quadrature.

    `post` must expose `latent_prior.dim`, `log_unnorm(z)` (unnormalized latent
    log posterior) and `push(z)` mapping latent points to output vectors.  Each
    E[f(G(z))] is a trapezoid sum over a latent grid of the normalized density.
    The same sum on the half grid must agree to `richardson_tol`, or the grid
    is too coarse and the check raises.  The report gives, per function, the
    quadrature, the chain mean and its standard error over 20 batch means, and
    the largest |chain - quadrature| / se as `max_mcmc_sigmas`.
    """
    dim = post.latent_prior.dim
    if dim > 2:
        raise ValueError("quadrature route requires latent dimension <= 2")
    samples = np.asarray(chain_samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]

    pts, w = _latent_grid(dim, half_width, n_grid)
    logphi = np.array([post.log_unnorm(z) for z in pts])
    phi = np.exp(logphi - logphi.max())
    u = np.stack([post.push(z) for z in pts])
    if fs is None:
        fs = default_test_functions(u.shape[1])

    dens = w * phi / float(np.sum(w * phi))

    # coarse grid for the resolution guard
    pts_c, w_c = _latent_grid(dim, half_width, (n_grid + 1) // 2)
    logphi_c = np.array([post.log_unnorm(z) for z in pts_c])
    phi_c = np.exp(logphi_c - logphi.max())
    u_c = np.stack([post.push(z) for z in pts_c])
    dens_c = w_c * phi_c / float(np.sum(w_c * phi_c))

    report = {"functions": {}, "max_mcmc_sigmas": 0.0}
    u_chain = np.stack([post.push(z) for z in samples])
    for name, f in fs:
        fu = np.asarray(f(u), dtype=float)
        quad_latent = float(np.dot(fu, dens))
        coarse = float(np.dot(np.asarray(f(u_c), dtype=float), dens_c))
        scale = max(1.0, abs(quad_latent))
        if abs(quad_latent - coarse) > max(richardson_tol, 1e-9 * scale) * scale:
            raise RuntimeError(
                f"quadrature grid too coarse for {name}: "
                f"{quad_latent:.3e} vs {coarse:.3e} on the half grid"
            )
        fc = np.asarray(f(u_chain), dtype=float)
        mcmc = float(np.mean(fc))
        nb = 20
        usable = (fc.size // nb) * nb
        bm = fc[:usable].reshape(nb, -1).mean(axis=1)
        se = float(np.std(bm, ddof=1) / np.sqrt(nb))
        report["functions"][name] = {
            "quad_latent": quad_latent,
            "mcmc": mcmc,
            "mcmc_se": se,
        }
        if se > 0:
            report["max_mcmc_sigmas"] = max(
                report["max_mcmc_sigmas"], abs(mcmc - quad_latent) / se
            )
    return report
