"""Stationary 2-D Darcy flow on a cell-centered finite-volume grid.

Pressure-driven flow through [0,1]^2: unit pressure on the left edge, zero on
the right, no-flux top and bottom.  Two-point flux approximation with harmonic
face permeabilities; the SPD system is solved matrix-free by conjugate
gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DarcyGrid:
    """n x n square cells on the unit square; index [ix, iy], ix along the flow."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("grid needs at least 4 cells per side")

    @property
    def h(self) -> float:
        return 1.0 / self.n


@dataclass
class DarcyField:
    """Solution fields per cell, plus the conservative face fluxes."""

    grid: DarcyGrid
    k: np.ndarray  # permeability (n, n)
    p: np.ndarray  # pressure (n, n)
    v1: np.ndarray  # center velocity, flow direction (n, n)
    v2: np.ndarray  # center velocity, transverse (n, n)
    flux_x: np.ndarray  # face-normal velocity through x-faces (n+1, n)
    flux_y: np.ndarray  # face-normal velocity through y-faces (n, n+1)

    def divergence(self) -> np.ndarray:
        """Per-cell net volumetric outflow through the faces (exact conservation
        statement of the scheme; zero up to the linear-solver residual)."""
        h = self.grid.h
        return (
            self.flux_x[1:, :] - self.flux_x[:-1, :] + self.flux_y[:, 1:] - self.flux_y[:, :-1]
        ) * h


P_LEFT = 1.0
P_RIGHT = 0.0
CG_RTOL = 1e-10


def _harmonic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 2.0 * a * b / (a + b)


def solve_darcy(k: np.ndarray, grid: DarcyGrid) -> DarcyField:
    """Solve -div(k grad p) = 0 with the fixed pressure drop across the square."""
    n = grid.n
    k = np.asarray(k, dtype=float).reshape(n, n)
    if not np.all(np.isfinite(k)) or np.any(k <= 0):
        raise ValueError("permeability must be finite and positive")

    # face transmissibilities (unit depth; face length h cancels distance h)
    tx = _harmonic(k[:-1, :], k[1:, :])  # interior x-faces (n-1, n)
    ty = _harmonic(k[:, :-1], k[:, 1:])  # interior y-faces (n, n-1)
    tl = 2.0 * k[0, :]  # left Dirichlet half-cells (n,)
    tr = 2.0 * k[-1, :]  # right Dirichlet half-cells (n,)

    def apply_op(p: np.ndarray) -> np.ndarray:
        out = np.zeros_like(p)
        d = tx * (p[:-1, :] - p[1:, :])
        out[:-1, :] += d
        out[1:, :] -= d
        d = ty * (p[:, :-1] - p[:, 1:])
        out[:, :-1] += d
        out[:, 1:] -= d
        out[0, :] += tl * p[0, :]
        out[-1, :] += tr * p[-1, :]
        return out

    b = np.zeros((n, n))
    b[0, :] = tl * P_LEFT
    b[-1, :] += tr * P_RIGHT

    p = np.full((n, n), 0.5)
    r = b - apply_op(p)
    d = r.copy()
    rs = float(np.sum(r * r))
    bnorm = float(np.linalg.norm(b))
    max_iter = 10 * n * n
    for _ in range(max_iter):
        if np.sqrt(rs) <= CG_RTOL * bnorm:
            break
        ad = apply_op(d)
        alpha = rs / float(np.sum(d * ad))
        p += alpha * d
        r -= alpha * ad
        rs_new = float(np.sum(r * r))
        d = r + (rs_new / rs) * d
        rs = rs_new
    else:
        raise RuntimeError(
            f"conjugate gradients did not reach {CG_RTOL:.0e} in {max_iter} iterations"
        )

    # face-normal velocities u = T (p_upwind - p_downwind) / h
    h = grid.h
    flux_x = np.zeros((n + 1, n))
    flux_x[0, :] = tl * (P_LEFT - p[0, :]) / h
    flux_x[1:-1, :] = tx * (p[:-1, :] - p[1:, :]) / h
    flux_x[-1, :] = tr * (p[-1, :] - P_RIGHT) / h
    flux_y = np.zeros((n, n + 1))  # no-flux walls stay zero
    flux_y[:, 1:-1] = ty * (p[:, :-1] - p[:, 1:]) / h

    v1 = 0.5 * (flux_x[:-1, :] + flux_x[1:, :])
    v2 = 0.5 * (flux_y[:, :-1] + flux_y[:, 1:])
    return DarcyField(grid=grid, k=k, p=p, v1=v1, v2=v2, flux_x=flux_x, flux_y=flux_y)


def restrict_cellwise(fine: np.ndarray, factor: int) -> np.ndarray:
    """Block-average a fine (fn, fn) cell field onto the coarse grid."""
    if factor == 1:
        return fine.copy()
    fn = fine.shape[0]
    n = fn // factor
    return fine.reshape(n, factor, n, factor).mean(axis=(1, 3))


def prolong_cellwise(coarse: np.ndarray, factor: int) -> np.ndarray:
    """Piecewise-constant injection of a coarse cell field onto a finer grid."""
    if factor == 1:
        return coarse.copy()
    return np.repeat(np.repeat(coarse, factor, axis=0), factor, axis=1)
