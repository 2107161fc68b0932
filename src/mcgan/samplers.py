"""MCMC engines over differentiable log-densities.

The workhorse is a multinomial no-U-turn sampler at unit mass: trajectories
grow by tree doubling until the momentum turns against the endpoint
displacement, proposals are drawn from the whole tree with weights exp(-H),
and the step size adapts by dual averaging toward a target acceptance
statistic during warmup.  Subtrees and the trajectory grow by one rule, `_merge`,
from one private leapfrog step, `_leap`; no leapfrog is exported.
A metric L L^T is applied from outside, by sampling u in z = z_bar + L u.  A
random-walk Metropolis step is provided as a derivative-free baseline.

Targets are duck-typed: either a callable z -> (logp, grad) or an object with
a `logp_and_grad` method (the latent posterior).  Random-walk MH only needs
z -> logp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HmcConfig",
    "Chain",
    "nuts_sample",
    "mh_step",
    "mh_sample",
    "find_reasonable_epsilon",
]

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


@dataclass(slots=True)
class _Point:
    z: np.ndarray
    p: np.ndarray
    logp: float
    grad: np.ndarray  # gradient of logp


def _leap(target, pt: _Point, eps: float) -> _Point:
    """The one leapfrog step: half kick, full drift at unit mass, half kick.

    Reuses the cached log-density gradient at the start point.
    """
    p = pt.p + 0.5 * eps * pt.grad
    z = pt.z + eps * p
    logp, grad = target(z)
    grad = np.asarray(grad, dtype=float)
    if not np.isfinite(grad).all():
        raise ValueError("non-finite potential gradient in leapfrog")
    p = p + 0.5 * eps * grad
    return _Point(z=z, p=p, logp=float(logp), grad=grad)


def _energy(pt: _Point) -> float:
    return -pt.logp + 0.5 * float(pt.p @ pt.p)


def find_reasonable_epsilon(target, z, rng) -> float:
    """Double or halve the step until one leapfrog step crosses 1/2 acceptance."""
    target = _as_target(target)
    z = np.asarray(z, dtype=float)
    logp, grad = target(z)
    eps = 1.0
    p = rng.standard_normal(z.shape)
    pt = _Point(z=z, p=p, logp=float(logp), grad=np.asarray(grad, float))
    h0 = _energy(pt)

    def log_ratio(e):
        try:
            nxt = _leap(target, pt, e)
        except ValueError:
            return -np.inf
        h1 = _energy(nxt)
        return h0 - h1 if np.isfinite(h1) else -np.inf

    direction = 1.0 if log_ratio(eps) > np.log(0.5) else -1.0
    for _ in range(60):
        if direction * log_ratio(eps) <= direction * np.log(0.5):
            break
        eps *= 2.0**direction
    return eps


@dataclass(slots=True)
class _Tree:
    minus: _Point
    plus: _Point
    proposal: _Point
    log_weight: float
    alpha_sum: float
    n_alpha: int
    turning: bool
    divergent: bool


def _is_turning(minus: _Point, plus: _Point) -> bool:
    dz = plus.z - minus.z
    return dz @ minus.p < 0.0 or dz @ plus.p < 0.0


def _merge(first: _Tree, second: _Tree, direction, rng) -> _Tree:
    """Extend the valid trajectory `first` by `second`, built on its `direction` side.

    Weights add, the proposal moves to second's with probability w2 / (w1 + w2)
    and the acceptance statistics sum.  An invalid second invalidates the result.
    """
    minus = first.minus if direction > 0 else second.minus
    plus = second.plus if direction > 0 else first.plus
    merged = _Tree(
        minus, plus, first.proposal, -np.inf, first.alpha_sum + second.alpha_sum,
        first.n_alpha + second.n_alpha, turning=True, divergent=second.divergent,
    )
    if second.divergent or second.turning:
        return merged
    # a valid subtree has a finite weight: a leaf with a non-finite energy is divergent
    merged.log_weight = float(np.logaddexp(first.log_weight, second.log_weight))
    if np.log(rng.uniform()) < second.log_weight - merged.log_weight:
        merged.proposal = second.proposal
    merged.turning = _is_turning(minus, plus)
    return merged


def _build_tree(target, pt, direction, depth, eps, h0, rng) -> _Tree:
    if depth == 0:
        try:
            nxt = _leap(target, pt, direction * eps)
            h1 = _energy(nxt)
        except ValueError:
            h1 = np.inf
            nxt = pt
        delta = h1 - h0  # only read when finite
        finite = math.isfinite(delta)
        divergent = not finite or delta > DIVERGENCE_THRESHOLD
        log_w = -delta if finite else -math.inf
        # np.exp, not math.exp: the two differ in the last bit on some inputs
        alpha = float(np.exp(min(0.0, -delta))) if finite else 0.0
        return _Tree(
            minus=nxt, plus=nxt, proposal=nxt, log_weight=log_w,
            alpha_sum=alpha, n_alpha=1, turning=False, divergent=divergent,
        )

    first = _build_tree(target, pt, direction, depth - 1, eps, h0, rng)
    if first.divergent or first.turning:
        return first
    start = first.plus if direction > 0 else first.minus
    second = _build_tree(target, start, direction, depth - 1, eps, h0, rng)
    return _merge(first, second, direction, rng)


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

    eps = find_reasonable_epsilon(target_fn, z, rng)
    mu = np.log(10.0 * eps)
    log_eps_bar, h_bar = 0.0, 0.0
    gamma, t0, kappa = 0.05, 10.0, 0.75

    samples = np.empty((n_samples, dim))
    logps = np.empty(n_samples)
    moved = np.zeros(n_samples, dtype=bool)
    all_divergent_warmup = 0

    for m in range(n_samples):
        current = _Point(z=z, p=rng.standard_normal(dim), logp=logp, grad=grad)
        h0 = _energy(current)
        # the initial point carries weight exp(-(h0 - h0)) = 1
        tree = _Tree(
            minus=current, plus=current, proposal=current, log_weight=0.0,
            alpha_sum=0.0, n_alpha=0, turning=False, divergent=False,
        )
        nondivergent_expansion = False
        for depth in range(cfg.max_tree_depth):
            direction = 1 if rng.uniform() < 0.5 else -1
            start = tree.plus if direction > 0 else tree.minus
            sub = _build_tree(target_fn, start, direction, depth, eps, h0, rng)
            if not sub.divergent:
                nondivergent_expansion = True
            tree = _merge(tree, sub, direction, rng)
            if tree.turning:
                break

        if m < cfg.warmup and not nondivergent_expansion:
            all_divergent_warmup += 1
        selected = tree.proposal
        moved[m] = selected is not current
        z, logp, grad = selected.z, selected.logp, selected.grad
        samples[m] = z
        logps[m] = logp

        accept_stat = tree.alpha_sum / max(tree.n_alpha, 1)
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


def mh_step(target_logp, z, logp: float, proposal_std: float, rng):
    """Gaussian random-walk Metropolis transition; returns (z, logp, accepted)."""
    if not proposal_std > 0:
        raise ValueError("proposal std must be positive")
    z = np.asarray(z, dtype=float)
    proposal = z + rng.normal(0.0, proposal_std, size=z.shape)
    lp_new = float(target_logp(proposal))
    if np.log(rng.uniform()) < lp_new - logp:
        return proposal, lp_new, True
    return z, logp, False


def mh_sample(
    target_logp, z0, n_samples: int, proposal_std: float, seed: int = 0, warmup: int = 0
) -> Chain:
    rng = np.random.default_rng(seed)
    z = np.asarray(z0, dtype=float).copy()
    logp = float(target_logp(z))
    samples = np.empty((n_samples, z.size))
    logps = np.empty(n_samples)
    moved = np.zeros(n_samples, dtype=bool)
    for i in range(n_samples):
        z, logp, acc = mh_step(target_logp, z, logp, proposal_std, rng)
        samples[i] = z
        logps[i] = logp
        moved[i] = acc
    return Chain(samples, logps, moved, warmup)
