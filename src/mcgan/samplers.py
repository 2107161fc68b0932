"""The no-U-turn sampler over a differentiable log-density.

A multinomial no-U-turn sampler at unit mass: trajectories grow by tree
doubling until the momentum turns against the endpoint displacement, proposals
are drawn from the whole tree with weights exp(-H), and the step size adapts by
dual averaging toward a target acceptance statistic during warmup.  `_double`
builds each doubling leaf by leaf, with no recursion and no per-leaf objects;
the trajectory and its subtrees merge there by one rule.  One private leapfrog
step, `_leap`, serves it and the initial step-size search, `_initial_step`,
which starts from the start point's cached density and gradient, so a chain
evaluates its start once.
A metric L L^T is applied from outside, by sampling u in z = z_bar + L u.

Targets are duck-typed: either a callable z -> (logp, grad) or an object with
a `logp_and_grad` method (the latent posterior).  A target reports a point of
non-finite density or gradient by returning it or by raising NonFiniteError;
either makes a divergent leaf.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import NonFiniteError

__all__ = ["HmcConfig", "Chain", "nuts_sample"]

DIVERGENCE_THRESHOLD = 1000.0


@dataclass(frozen=True)
class HmcConfig:
    target_accept: float = 0.8
    warmup: int = 1000
    max_tree_depth: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target acceptance must lie in (0, 1)")
        if self.max_tree_depth < 1 or self.warmup < 0:
            raise ValueError("invalid tree depth or warmup count")


@dataclass
class Chain:
    """Ordered samples with densities, move flags, and the burn-in marker."""

    samples: np.ndarray
    log_densities: np.ndarray
    accepted: np.ndarray
    burn_in: int

    def __post_init__(self):
        n = self.samples.shape[0]
        if not (self.log_densities.shape[0] == n and self.accepted.shape[0] == n):
            raise ValueError("chain columns must have equal length")
        if not 0 <= self.burn_in < n:
            raise ValueError("burn-in marker must fall inside the chain")

    def __len__(self) -> int:
        return self.samples.shape[0]

    def post_burn(self) -> np.ndarray:
        return self.samples[self.burn_in :]

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accepted[self.burn_in :]))


def _as_target(target):
    if callable(target):
        return target
    if hasattr(target, "logp_and_grad"):
        return target.logp_and_grad
    raise TypeError("target must be callable or expose logp_and_grad")


def _leap(target, z, p, grad, eps):
    """The one leapfrog step: half kick, full drift at unit mass, half kick.

    Starts from the cached log-density gradient at z and returns
    (z, p, logp, grad, kinetic) at the end point.  A non-finite end gradient
    always makes the momentum, and so the kinetic energy, non-finite: the one
    check on the kinetic energy covers both.
    """
    p = p + 0.5 * eps * grad
    z = z + eps * p
    logp, grad = target(z)
    grad = np.asarray(grad, dtype=float)
    p = p + 0.5 * eps * grad
    kinetic = 0.5 * float(p @ p)
    if not math.isfinite(kinetic):
        raise NonFiniteError("non-finite momentum or potential gradient in leapfrog")
    return z, p, float(logp), grad, kinetic


def _initial_step(target, z, logp: float, grad, rng) -> float:
    """Double or halve the step until one leapfrog step from z crosses 1/2
    acceptance (Hoffman & Gelman 2014, Algorithm 4); (logp, grad) are z's own."""
    eps = 1.0
    p = rng.standard_normal(z.shape)
    h0 = -logp + 0.5 * float(p @ p)

    def log_ratio(e):
        try:
            _, _, logp1, _, kinetic = _leap(target, z, p, grad, e)
        except NonFiniteError:
            return -np.inf
        h1 = -logp1 + kinetic
        return h0 - h1 if math.isfinite(h1) else -np.inf

    direction = 1.0 if log_ratio(eps) > np.log(0.5) else -1.0
    for _ in range(60):
        if direction * log_ratio(eps) <= direction * np.log(0.5):
            break
        eps *= 2.0**direction
    return eps


def _double(target, near, trajectory, forward, eps, h0, rng):
    """Double the trajectory by leapfrog steps from its end `near` = (z, p, grad).

    `trajectory` = (size, log_weight, alpha_sum, proposal, z_far, p_far) sits
    at the bottom of a stack of finished halves, and two halves of one size
    merge as soon as the second is complete.  That is the recursion's order, so
    the RNG draws and every sum are its own.  A merge adds the weights, moves
    the proposal to the second half's with probability w2 / (w1 + w2), sums the
    acceptance statistics and stops on a U-turn across the merged span; a
    divergent leaf, or one of non-finite energy, stops too.

    Returns (stop, divergent, n_leaves, near, log_weight, alpha_sum, proposal).
    """
    z, p, grad = near
    step = eps if forward else -eps
    stack = [trajectory]
    n = trajectory[0]
    for i in range(1, n + 1):
        try:
            z, p, logp, grad, kinetic = _leap(target, z, p, grad, step)
            delta = -logp + kinetic - h0
        except NonFiniteError:
            delta = math.inf
        if not math.isfinite(delta) or delta > DIVERGENCE_THRESHOLD:
            # exp(-delta) underflows to 0 past the threshold
            return _stopped(stack, 0.0, None, True, i)
        # np.exp, not math.exp: the two differ in the last bit on some inputs
        alpha = 1.0 if delta <= 0.0 else float(np.exp(-delta))
        size, log_w, proposal, z_first, p_first = 1, -delta, (z, logp, grad), z, p
        while stack and stack[-1][0] == size:
            size0, log_w0, alpha0, proposal0, z_first, p_first = stack.pop()
            size += size0
            merged = float(np.logaddexp(log_w0, log_w))
            if not np.log(rng.random()) < log_w - merged:
                proposal = proposal0
            log_w = merged
            alpha = alpha0 + alpha
            dz = z - z_first if forward else z_first - z
            if dz @ p_first < 0.0 or dz @ p < 0.0:
                return _stopped(stack, alpha, proposal, False, i)
        stack.append((size, log_w, alpha, proposal, z_first, p_first))
    _, log_w, alpha, proposal, _, _ = stack[0]
    return False, False, n, (z, p, grad), log_w, alpha, proposal


def _stopped(stack, alpha, proposal, divergent, n):
    """A stop discards the halves above the trajectory but for their acceptance
    statistics, which fold in from the right as they return up the recursion."""
    for entry in reversed(stack):
        alpha = entry[2] + alpha
    if stack:
        proposal = stack[0][3]
    return True, divergent, n, None, -math.inf, alpha, proposal


def nuts_sample(target, cfg: HmcConfig, n_samples: int, z0) -> Chain:
    """No-U-turn chain at unit mass with dual-averaging warmup.

    Records n_samples states in total; the first cfg.warmup are flagged as
    burn-in.  Fully deterministic for a fixed seed.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if cfg.warmup >= n_samples:
        raise ValueError("warmup must leave room for retained samples")
    target_fn = _as_target(target)
    rng = np.random.default_rng(cfg.seed)
    z = np.asarray(z0, dtype=float).copy()
    dim = z.shape[0]

    logp, grad = target_fn(z)
    logp = float(logp)
    grad = np.asarray(grad, dtype=float)
    if not (math.isfinite(logp) and np.isfinite(grad).all()):
        raise ValueError("non-finite log density or gradient at the start point z0")

    eps = _initial_step(target_fn, z, logp, grad, rng)
    mu = np.log(10.0 * eps)
    log_eps_bar, h_bar = 0.0, 0.0
    gamma, t0, kappa = 0.05, 10.0, 0.75

    samples = np.empty((n_samples, dim))
    logps = np.empty(n_samples)
    moved = np.zeros(n_samples, dtype=bool)
    all_divergent_warmup = 0

    for m in range(n_samples):
        p = rng.standard_normal(dim)
        h0 = -logp + 0.5 * float(p @ p)
        current = (z, logp, grad)
        minus = plus = (z, p, grad)
        # the initial point carries weight exp(-(h0 - h0)) = 1
        log_weight, alpha_sum, proposal, n_alpha = 0.0, 0.0, current, 0
        nondivergent_expansion = False
        for depth in range(cfg.max_tree_depth):
            forward = rng.random() < 0.5
            near, far = (plus, minus) if forward else (minus, plus)
            # after `depth` doublings the trajectory holds 2**depth points
            trajectory = (1 << depth, log_weight, alpha_sum, proposal, far[0], far[1])
            stop, divergent, n, end, log_weight, alpha_sum, proposal = _double(
                target_fn, near, trajectory, forward, eps, h0, rng
            )
            n_alpha += n
            if not divergent:
                nondivergent_expansion = True
            if stop:
                break
            plus, minus = (end, minus) if forward else (plus, end)

        if m < cfg.warmup and not nondivergent_expansion:
            all_divergent_warmup += 1
        moved[m] = proposal is not current
        z, logp, grad = proposal
        samples[m] = z
        logps[m] = logp

        accept_stat = alpha_sum / max(n_alpha, 1)
        if m < cfg.warmup:
            frac = 1.0 / (m + 1 + t0)
            h_bar = (1.0 - frac) * h_bar + frac * (cfg.target_accept - accept_stat)
            log_eps = mu - np.sqrt(m + 1.0) / gamma * h_bar
            eta = (m + 1.0) ** (-kappa)
            log_eps_bar = eta * log_eps + (1.0 - eta) * log_eps_bar
            eps = float(np.exp(log_eps))
        elif m == cfg.warmup and cfg.warmup > 0:
            eps = float(np.exp(log_eps_bar))

    if cfg.warmup > 0 and all_divergent_warmup == cfg.warmup:
        raise RuntimeError("every warmup step diverged on all tree expansions")
    return Chain(samples, logps, moved, cfg.warmup)
