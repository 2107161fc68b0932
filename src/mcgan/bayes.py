"""Probability core: the observation noise, the latent posterior, MAP, posterior stats.

The latent posterior replaces the PDE forward map with the trained generator:
log rho(z | y) = log rho_eta(y - h(G(z))) + log rho_z(z), unnormalized.  Every
posterior carries an observation operator (the sensor sites h), a noise model
rho_eta and sensor data y; there is no prior-only mode.  `GaussianNoise` is the
one statement of the noise: the operator carries none.  The evidence is never
computed; MAP search and MCMC only need density ratios and gradients, which
come from one forward pass and its hand-written adjoint.

Generators are duck-typed: anything exposing `latent_dim`, `n_state`,
`n_param`, `push(z)`, `moments(z)` and `observer(idx)` works.  `moments`
returns the pointwise mean and std of G over a batch of latent rows, and
`observer` a map z -> (observed state values, back), built once per posterior,
with back carrying a cotangent on them to z.  Analytic stand-ins (linear maps)
serve the conjugate cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import NonFiniteError
from .priors import LatentPrior

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class GaussianNoise:
    """Independent Gaussian observation noise, scalar or per-channel std."""

    std: np.ndarray

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.std, dtype=float))
        object.__setattr__(self, "std", s)
        if not np.all(np.isfinite(s) & (s > 0)):
            raise ValueError("noise std must be finite and positive")

    def expanded(self, n: int) -> np.ndarray:
        if self.std.size == 1:
            return np.full(n, self.std[0])
        if self.std.size != n:
            raise ValueError("noise std length does not match observation count")
        return self.std


class LatentPosterior:
    """Unnormalized posterior over the generator's latent space, given sensor data y."""

    def __init__(self, generator, op, noise: GaussianNoise, y):
        self.generator = generator
        self.op = op
        self.latent_prior = LatentPrior(generator.latent_dim)
        self._prior_const = -0.5 * self.latent_prior.dim * LOG_2PI
        self.y = np.asarray(y, dtype=float).ravel()
        if self.y.size != op.n_obs:
            raise ValueError(
                f"got {self.y.size} observations for an operator with {op.n_obs}"
            )
        self.noise = noise
        std = noise.expanded(op.n_obs)
        self._inv_std = 1.0 / std
        self._loglik_const = float(-np.sum(np.log(std)) - 0.5 * op.n_obs * LOG_2PI)
        self._observe = generator.observer(op.indices)

    def _forward(self, z):
        """The log posterior at z, and a thunk for its gradient: one pass, one adjoint.

        The operations follow the tape route kept as the oracle in the tests, in
        the same order, so value and gradient agree with it bit for bit.
        """
        log_prior = (z * z).sum() * -0.5 + self._prior_const
        h, back = self._observe(z)
        s = (self.y - h) * self._inv_std
        log_lik = (s * s).sum() * -0.5 + self._loglik_const
        return float(log_lik + log_prior), lambda: back(s * self._inv_std) - z

    def logp_and_grad(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        val, grad = self._forward(z)
        grad = grad()
        if not (math.isfinite(val) and np.isfinite(grad).all()):
            raise NonFiniteError("non-finite log posterior or gradient")
        return val, grad

    def log_unnorm(self, z: np.ndarray) -> float:
        val = self._forward(z)[0]
        if not math.isfinite(val):
            raise NonFiniteError("non-finite log posterior")
        return val

    def push(self, z: np.ndarray) -> np.ndarray:
        return self.generator.push(np.asarray(z, dtype=float))


@dataclass(frozen=True)
class MapConfig:
    """Armijo ascent: `steps` per start from `restarts` Gaussian starts, each
    with first trial step INITIAL_STEP."""

    steps: int = 500
    restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.restarts < 1:
            raise ValueError("MAP search needs positive step and restart counts")


INITIAL_STEP = 0.1
ARMIJO_C = 1e-4
BACKTRACK = 0.5


def map_estimate(post: LatentPosterior, cfg: MapConfig) -> np.ndarray:
    """Gradient ascent with Armijo backtracking from several Gaussian starts.  A
    NonFiniteError skips a restart or fails a trial step; other errors propagate."""
    rng = np.random.default_rng(cfg.seed)
    dim = post.latent_prior.dim
    best_val, best_z = -np.inf, None
    for _ in range(cfg.restarts):
        z = rng.standard_normal(dim)
        try:
            val, grad = post.logp_and_grad(z)
        except NonFiniteError:
            continue
        step = INITIAL_STEP
        for _ in range(cfg.steps):
            gnorm2 = float(grad @ grad)
            if gnorm2 < 1e-24:
                break
            accepted = False
            for _ in range(60):
                z_try = z + step * grad
                try:
                    v_try, g_try = post.logp_and_grad(z_try)
                except NonFiniteError:
                    v_try = -np.inf
                if v_try >= val + ARMIJO_C * step * gnorm2:
                    z, val, grad = z_try, v_try, g_try
                    accepted = True
                    break
                step *= BACKTRACK
            if not accepted:
                break
            step *= 1.5  # re-expand after a success so steps can grow back
        if val > best_val:
            best_val, best_z = val, z
    if best_z is None:
        raise RuntimeError("every MAP restart produced a non-finite objective")
    return best_z


@dataclass
class PosteriorStats:
    """Pushforward posterior summaries over a set of latent samples."""

    q_mean: np.ndarray
    q_std: np.ndarray
    m_mean: np.ndarray
    m_std: np.ndarray


def posterior_stats(samples: np.ndarray, generator) -> PosteriorStats:
    """Monte Carlo pushforward mean and std of G(z_i), blockwise, by generator.moments."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[None, :]
    if samples.shape[0] < 1:
        raise ValueError("need at least one sample")
    mean, std = generator.moments(samples)
    nq = generator.n_state
    return PosteriorStats(mean[:nq], std[:nq], mean[nq:], std[nq:])


class LinearGenerator:
    """Analytic generator G(z) = A z (+ offset); the conjugate-test stand-in."""

    def __init__(self, a: np.ndarray, offset: np.ndarray | None = None, n_param: int = 0):
        self.a = np.asarray(a, dtype=float)
        self.offset = (
            np.zeros(self.a.shape[0]) if offset is None else np.asarray(offset, float)
        )
        self.latent_dim = self.a.shape[1]
        self.n_param = n_param
        self.n_state = self.a.shape[0] - n_param

    def push(self, z):
        return self.a @ z + self.offset

    def moments(self, z):
        rows = np.atleast_2d(z) @ self.a.T + self.offset
        return rows.mean(axis=0), rows.std(axis=0)

    def observer(self, idx):
        if np.any(np.asarray(idx) >= self.n_state):
            raise IndexError("observed indices must fall inside the state block")
        a, offset = self.a[idx, :], self.offset[idx]
        return lambda z: (a @ z + offset, lambda cot: a.T @ cot)
