"""Observation operators and synthetic-data generation with resolution mismatch.

Synthetic observations are produced on a refined solver grid and then the
truth is restricted back to the training grid for scoring, so the inference
never sees data generated by its own discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .darcy import DarcyGrid, prolong_cellwise, restrict_cellwise, solve_darcy
from .pipe import PipeConfig, PipeState, solve_pipe


@dataclass(frozen=True)
class ObservationOp:
    """Point samples of a flat state vector; the noise model lives in the posterior."""

    indices: np.ndarray
    state_len: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        object.__setattr__(self, "indices", idx)
        if idx.size == 0:
            raise ValueError("observation operator needs at least one site")
        if idx.min() < 0 or idx.max() >= self.state_len:
            raise IndexError("observation site out of range")

    @property
    def n_obs(self) -> int:
        return self.indices.size


def observe(state_vector: np.ndarray, op: ObservationOp, rng: np.random.Generator | None = None,
            noise_std: float = 0.0) -> np.ndarray:
    """Sample the state at the operator's sites; add N(0, noise_std^2) noise when rng is given."""
    u = np.asarray(state_vector, dtype=float).ravel()
    if u.size != op.state_len:
        raise ValueError(f"state length {u.size} != operator's {op.state_len}")
    y = u[op.indices].copy()
    if rng is not None:
        if not (math.isfinite(noise_std) and noise_std > 0):
            raise ValueError(f"noise std must be finite and positive, got {noise_std}")
        y += rng.normal(0.0, noise_std, op.n_obs)
    return y


# ---------------------------------------------------------------------------
# Darcy: state vector (v1, v2, p) flattened; sensors read v1 on a regular grid.
# ---------------------------------------------------------------------------


def darcy_state_vector(field) -> np.ndarray:
    return np.concatenate([field.v1.ravel(), field.v2.ravel(), field.p.ravel()])


def darcy_sensor_op(n_grid: int, n_sensors: int = 100) -> ObservationOp:
    """Evenly distributed horizontal-velocity sensors on an s x s lattice."""
    s = int(round(np.sqrt(n_sensors)))
    if s * s != n_sensors:
        raise ValueError("sensor count must be a perfect square")
    frac = (np.arange(s) + 0.5) / s
    cells = np.minimum((frac * n_grid).astype(np.intp), n_grid - 1)
    ix, iy = np.meshgrid(cells, cells, indexing="ij")
    idx = ix.ravel() * n_grid + iy.ravel()  # v1 block sits at offset 0
    return ObservationOp(indices=idx, state_len=3 * n_grid * n_grid)


@dataclass
class SyntheticObservations:
    """Noisy data plus the restricted truth used for scoring."""

    y: np.ndarray
    truth_state: np.ndarray
    truth_params: np.ndarray
    op: ObservationOp


def darcy_synth_observations(
    log_perm_coarse: np.ndarray,
    grid: DarcyGrid,
    fine_factor: int = 2,
    rng: np.random.Generator | None = None,
    n_sensors: int = 100,
    noise_std: float = 0.01,
) -> SyntheticObservations:
    """Solve on a grid refined by fine_factor, observe there, score coarsely."""
    if fine_factor < 1:
        raise ValueError("fine factor must be >= 1")
    m = np.asarray(log_perm_coarse, dtype=float).reshape(grid.n, grid.n)
    fine = DarcyGrid(grid.n * fine_factor)
    field_f = solve_darcy(prolong_cellwise(np.exp(m), fine_factor), fine)
    y = observe(darcy_state_vector(field_f), darcy_sensor_op(fine.n, n_sensors), rng, noise_std)
    truth_state = np.concatenate(
        [
            restrict_cellwise(field_f.v1, fine_factor).ravel(),
            restrict_cellwise(field_f.v2, fine_factor).ravel(),
            restrict_cellwise(field_f.p, fine_factor).ravel(),
        ]
    )
    return SyntheticObservations(
        y=y,
        truth_state=truth_state,
        truth_params=m.ravel().copy(),
        op=darcy_sensor_op(grid.n, n_sensors),
    )


# ---------------------------------------------------------------------------
# Pipe: state vector (v, p) on the space-time grid; pressure sensors near the
# pipe ends, read at every storage time.
# ---------------------------------------------------------------------------


def pipe_state_vector(state: PipeState) -> np.ndarray:
    return np.concatenate([state.v.ravel(), state.p.ravel()])


def pipe_sensor_op(cfg: PipeConfig, sensor_x=(20.0, 1980.0)) -> ObservationOp:
    centers = cfg.cell_centers()
    rows = [int(np.argmin(np.abs(centers - x))) for x in sensor_x]
    block = cfg.nx * cfg.nt  # pressure block offset
    idx = np.concatenate([block + r * cfg.nt + np.arange(cfg.nt) for r in rows])
    return ObservationOp(indices=idx, state_len=2 * block)


def pipe_synth_observations(
    x_l: float,
    c_d: float,
    cfg: PipeConfig,
    fine_factor: int = 2,
    rng: np.random.Generator | None = None,
    sensor_x=(20.0, 1980.0),
    noise_std: float = 1500.0,
) -> SyntheticObservations:
    """Solve on a space-refined grid (same storage times), observe, restrict."""
    if fine_factor < 1:
        raise ValueError("fine factor must be >= 1")
    fine_cfg = replace(cfg, nx=cfg.nx * fine_factor)
    state_f = solve_pipe(x_l, c_d, fine_cfg)
    y = observe(pipe_state_vector(state_f), pipe_sensor_op(fine_cfg, sensor_x), rng, noise_std)

    def restrict_rows(arr):  # (nx*f, nt) -> (nx, nt) block average in space
        return arr.reshape(cfg.nx, fine_factor, cfg.nt).mean(axis=1)

    truth_state = np.concatenate(
        [restrict_rows(state_f.v).ravel(), restrict_rows(state_f.p).ravel()]
    )
    return SyntheticObservations(
        y=y,
        truth_state=truth_state,
        truth_params=np.array([x_l, c_d]),
        op=pipe_sensor_op(cfg, sensor_x),
    )
