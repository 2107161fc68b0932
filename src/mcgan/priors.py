"""Random-field and parameter priors.

Log-permeability fields are modeled as zero-mean Gaussian fields with a Matern
covariance, reduced through a truncated spectral (Karhunen-Loeve) expansion of
the dense covariance matrix.  Smoothness is restricted to half-integer orders
where the Bessel function collapses to a closed form, which covers everything
used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUPPORTED_NU = (0.5, 1.5, 2.5)


@dataclass(frozen=True)
class MaternConfig:
    nu: float = 1.5
    length: float = 0.2
    sigma: float = 0.5

    def __post_init__(self):
        if self.nu not in SUPPORTED_NU:
            raise ValueError(f"smoothness must be one of {SUPPORTED_NU}")
        if not (self.length > 0 and self.sigma > 0):
            raise ValueError("correlation length and marginal std must be positive")


def _matern_of_distance(d: np.ndarray, cfg: MaternConfig) -> np.ndarray:
    x = np.sqrt(2.0 * cfg.nu) * d / cfg.length
    s2 = cfg.sigma**2
    if cfg.nu == 0.5:
        poly = 1.0
    elif cfg.nu == 1.5:
        poly = 1.0 + x
    else:  # 2.5
        poly = 1.0 + x + x * x / 3.0
    return s2 * poly * np.exp(-x)


def matern_covariance_matrix(points: np.ndarray, cfg: MaternConfig) -> np.ndarray:
    """Dense covariance matrix over a point set of shape (n, dim) or (n,)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    return _matern_of_distance(d, cfg)


def unit_square_grid(n: int) -> np.ndarray:
    """Cell centers of an n x n grid on [0,1]^2, row-major, shape (n^2, 2)."""
    h = 1.0 / n
    c = (np.arange(n) + 0.5) * h
    xx, yy = np.meshgrid(c, c, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


# ---------------------------------------------------------------------------
# Spectral decomposition
# ---------------------------------------------------------------------------


@dataclass
class KlBasis:
    """Eigenpairs of a covariance matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = self.eigenvalues
        if np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be non-increasing")
        if np.any(lam < 0):
            raise ValueError("eigenvalues must be nonnegative")
        psi = self.eigenvectors
        gram = psi.T @ psi
        if np.max(np.abs(gram - np.eye(psi.shape[1]))) > 1e-8:
            raise ValueError("eigenvectors not orthonormal")

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]

    def truncated_covariance(self, n: int) -> np.ndarray:
        psi = self.eigenvectors[:, :n]
        return (psi * self.eigenvalues[:n]) @ psi.T


NEG_EIG_TOL = -1e-10


def kl_decompose(cov: np.ndarray) -> KlBasis:
    """Eigendecomposition of a dense symmetric covariance by ``np.linalg.eigh``.

    Rejects an asymmetric matrix or a clearly negative eigenvalue, clips
    round-off negatives to zero and sorts the eigenpairs descending.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    scale = max(1.0, float(np.max(np.abs(cov))))
    if np.max(np.abs(cov - cov.T)) > 1e-10 * scale:
        raise ValueError("covariance matrix is not symmetric")
    lam, psi = np.linalg.eigh(cov)
    if np.any(lam < NEG_EIG_TOL * scale):
        raise ValueError(
            f"covariance has negative eigenvalue {lam.min():.3e}; not a covariance"
        )
    lam = np.clip(lam, 0.0, None)
    order = np.argsort(lam)[::-1]
    return KlBasis(lam[order], psi[:, order])


def sample_fields(
    basis: KlBasis, n: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Batch of truncated-expansion draws sum_i sqrt(lambda_i) m_i psi_i, i <= n,
    shape (count, field_dim)."""
    if not 1 <= n <= basis.size:
        raise ValueError(f"truncation {n} outside [1, {basis.size}]")
    coeff = rng.standard_normal(size=(count, n))
    scaled = coeff * np.sqrt(basis.eigenvalues[:n])
    return scaled @ basis.eigenvectors[:, :n].T


# ---------------------------------------------------------------------------
# Parameter and latent priors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxPrior:
    """Independent uniform prior over a box."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or not np.all((lo < hi) & np.isfinite(hi - lo)):
            raise ValueError("box prior needs finite lower < upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        shape = (self.dim,) if size is None else (size, self.dim)
        return rng.uniform(self.lower, self.upper, size=shape)


@dataclass(frozen=True)
class LatentPrior:
    """Standard normal prior over the generator's latent space."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("latent dimension must be >= 1")
