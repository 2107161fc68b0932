"""Chain diagnostics: bulk ESS and rank-normalised split-R-hat.

Follows Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021), "Rank-
normalization, folding, and localization: an improved R-hat for assessing
convergence of MCMC".  Autocorrelations are summed with Geyer's initial
monotone sequence.  Arrays are (chains, draws) for one scalar quantity.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

_INV_CDF = np.vectorize(NormalDist().inv_cdf, otypes=[float])


def _split(x: np.ndarray) -> np.ndarray:
    """Halve every chain (dropping a middle draw when the length is odd)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    half = x.shape[1] // 2
    if half < 2:
        raise ValueError("need at least four draws per chain")
    return np.concatenate([x[:, :half], x[:, -half:]], axis=0)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of a flat array, ties sharing their average rank."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    before = np.cumsum(counts) - counts
    return (before + (counts + 1) / 2.0)[inverse]


def rank_normalize(x: np.ndarray) -> np.ndarray:
    """Pooled ranks mapped through the normal quantile, (r - 3/8) / (S + 1/4)."""
    x = np.asarray(x, dtype=float)
    r = _average_ranks(x.ravel())
    return _INV_CDF((r - 0.375) / (x.size + 0.25)).reshape(x.shape)


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, by FFT."""
    n = x.shape[1]
    centered = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, size, axis=1)
    return np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n] / n


def ess(x: np.ndarray) -> float:
    """Effective sample size of (chains, draws), Geyer initial monotone sequence."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m, n = x.shape
    if n < 4:
        raise ValueError("need at least four draws per chain")
    acov = _autocovariance(x)
    chain_var = acov[:, 0] * n / (n - 1.0)
    mean_var = chain_var.mean()
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    if var_plus <= 0.0:
        return float(m * n)  # constant draws carry no autocorrelation to sum
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # initial positive sequence over pairs (rho_2t + rho_2t+1) ...
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    negative = np.nonzero(pairs < 0.0)[0]
    pairs = pairs[: negative[0]] if negative.size else pairs
    # ... made monotone non-increasing
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * pairs.sum()
    tau = max(tau, 1.0 / np.log10(m * n))
    return float(m * n / tau)


def bulk_ess(x: np.ndarray) -> float:
    """ESS of the rank-normalised split chains."""
    return ess(rank_normalize(_split(x)))


def _split_rhat(x: np.ndarray) -> float:
    n = x.shape[1]
    w = x.var(axis=1, ddof=1).mean()
    b = n * x.mean(axis=1).var(ddof=1)
    if w <= 0.0:
        return 1.0 if b <= 0.0 else np.inf
    return float(np.sqrt(((n - 1.0) / n * w + b / n) / w))


def rhat(x: np.ndarray) -> float:
    """Rank-normalised split-R-hat: the larger of the bulk and folded-tail values."""
    s = _split(x)
    bulk = _split_rhat(rank_normalize(s))
    tail = _split_rhat(rank_normalize(np.abs(s - np.median(s))))
    return max(bulk, tail)


def min_bulk_ess(draws: np.ndarray) -> float:
    """Smallest bulk ESS over the coordinates of one chain's (draws, dim) array."""
    return min(bulk_ess(draws[:, j][None, :]) for j in range(draws.shape[1]))


def max_rhat(chains: list[np.ndarray]) -> float:
    """Largest R-hat over the coordinates of equal-length (draws, dim) chains."""
    stacked = np.stack(chains)  # (chains, draws, dim)
    return max(rhat(stacked[:, :, j]) for j in range(stacked.shape[2]))
