"""1-D isothermal pipe flow with a point leak, on a finite-volume grid.

Conservative variables q1 = rho A (mass per length) and q2 = rho v A (momentum
per length), linear pressure law p = c^2 (rho - rho_ref) + p_ref.  Rusanov
(local Lax-Friedrichs) interface fluxes, Heun two-stage explicit stepping under
a CFL bound, ghost cells for the prescribed inflow velocity and outflow
pressure.  The leak is a point sink: once active it removes
C_d sqrt(rho (p - p_amb)) mass per unit time from the single cell containing
it.  Wall friction follows the Haaland correlation.

The time-marching core is batched over scenarios: dataset generation advances
thousands of leak scenarios in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CFL_NUMBER = 0.5


@dataclass(frozen=True)
class PipeConfig:
    length: float = 2000.0  # m
    diameter: float = 0.508  # m
    area: float = 0.203  # m^2
    sound_speed: float = 308.0  # m/s
    p_ambient: float = 101325.0  # Pa
    p_ref: float = 5016390.0  # Pa
    rho_ref: float = 52.67  # kg/m^3
    v_inflow: float = 4.0  # m/s
    p_outflow: float = 5016390.0  # Pa
    roughness: float = 1e-8  # m
    viscosity: float = 1.2e-5  # N s / m^2
    leak_start: float = 10.0  # s
    horizon: float = 64.0  # s
    nx: int = 64
    nt: int = 64
    include_friction: bool = True

    def __post_init__(self):
        for name in (
            "length", "diameter", "area", "sound_speed", "p_ambient", "p_ref",
            "rho_ref", "v_inflow", "p_outflow", "roughness", "viscosity",
            "leak_start", "horizon",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"pipe constant {name} must be positive")
        if self.nx < 16 or self.nt < 16:
            raise ValueError("grid needs nx, nt >= 16")

    @property
    def dx(self) -> float:
        return self.length / self.nx

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.dx

    def output_times(self) -> np.ndarray:
        return (np.arange(self.nt) + 1) * (self.horizon / self.nt)

    def pressure(self, rho: np.ndarray) -> np.ndarray:
        return self.sound_speed**2 * (rho - self.rho_ref) + self.p_ref

    def density_of_pressure(self, p: float) -> float:
        return (p - self.p_ref) / self.sound_speed**2 + self.rho_ref

    def steady_state(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        """Uniform initial condition: rho_ref, v_inflow everywhere."""
        q1 = np.full((batch, self.nx), self.rho_ref * self.area)
        q2 = np.full((batch, self.nx), self.rho_ref * self.v_inflow * self.area)
        return q1, q2


@dataclass
class PipeState:
    """Space-time solution on the storage grid, conservative plus derived fields."""

    cfg: PipeConfig
    q1: np.ndarray  # (nx, nt)
    q2: np.ndarray  # (nx, nt)
    times: np.ndarray  # (nt,)
    max_mass_imbalance: float = 0.0
    v: np.ndarray = field(init=False)
    p: np.ndarray = field(init=False)

    def __post_init__(self):
        if np.any(self.q1 <= 0):
            raise ValueError("non-positive density in pipe state")
        self.v = self.q2 / self.q1
        self.p = self.cfg.pressure(self.q1 / self.cfg.area)


def haaland_friction(reynolds, rel_roughness) -> np.ndarray | float:
    """Darcy-Weisbach friction factor from the Haaland correlation.

    Evaluates 1/sqrt(f) = -(1.8/4) log10[(rel_roughness/3.7)^1.11 + 6.9/Re].
    """
    re = np.asarray(reynolds, dtype=float)
    if not np.all(re > 0):
        raise ValueError("Reynolds number must be positive")
    if not np.all(np.asarray(rel_roughness, dtype=float) >= 0):
        raise ValueError("relative roughness must be nonnegative")
    bracket = (rel_roughness / 3.7) ** 1.11 + 6.9 / re
    inv_sqrt = -0.45 * np.log10(bracket)
    f = 1.0 / (inv_sqrt * inv_sqrt)
    if np.isscalar(reynolds):
        return float(f)
    return f


def _rhs(q1, q2, t, cfg: PipeConfig, leak_cell, c_d):
    """Spatial operator; returns (dq1, dq2, influx, outflux, leak_rate)."""
    a = cfg.area
    c = cfg.sound_speed
    if np.any(q1 <= 0):
        raise RuntimeError("negative density during pipe time stepping")
    v = q2 / q1

    # ghost cells: prescribed velocity at x=0, prescribed pressure at x=L
    rho_out = cfg.density_of_pressure(cfg.p_outflow)
    q1e = np.concatenate([q1[:, :1], q1, np.full_like(q1[:, :1], rho_out * a)], axis=1)
    q2e = np.concatenate(
        [q1[:, :1] * cfg.v_inflow, q2, rho_out * a * v[:, -1:]], axis=1
    )
    ve = q2e / q1e
    pe = cfg.pressure(q1e / a)

    f1 = q2e
    f2 = q2e * ve + pe * a
    speed = np.abs(ve) + c
    amax = np.maximum(speed[:, :-1], speed[:, 1:])
    flux1 = 0.5 * (f1[:, :-1] + f1[:, 1:]) - 0.5 * amax * (q1e[:, 1:] - q1e[:, :-1])
    flux2 = 0.5 * (f2[:, :-1] + f2[:, 1:]) - 0.5 * amax * (q2e[:, 1:] - q2e[:, :-1])

    dq1 = -(flux1[:, 1:] - flux1[:, :-1]) / cfg.dx
    dq2 = -(flux2[:, 1:] - flux2[:, :-1]) / cfg.dx

    batch = q1.shape[0]
    leak_rate = np.zeros(batch)
    if t >= cfg.leak_start:
        rows = np.arange(batch)
        p_leak = cfg.pressure(q1[rows, leak_cell] / a)
        active = c_d > 0
        if np.any(active & (p_leak <= cfg.p_ambient)):
            raise RuntimeError(
                "pressure fell to ambient at the leak cell (negative radicand)"
            )
        rad = np.where(active, (q1[rows, leak_cell] / a) * (p_leak - cfg.p_ambient), 0.0)
        leak_rate = c_d * np.sqrt(np.maximum(rad, 0.0))
        dq1[rows, leak_cell] -= leak_rate / cfg.dx

    if cfg.include_friction:
        rho = q1 / a
        re = np.maximum(rho * np.abs(v) * cfg.diameter / cfg.viscosity, 1e-12)
        f = haaland_friction(re, cfg.roughness / cfg.diameter)
        dq2 -= f * q2 * v / (2.0 * cfg.diameter)

    return dq1, dq2, flux1[:, 0], flux1[:, -1], leak_rate


def _march(cfg: PipeConfig, leak_cell, c_d):
    """Heun-stepped march from the steady state at t = 0, recording at the storage times.

    Returns (q1, q2) records of shape (batch, nx, nt) and the max relative mass
    imbalance.  The mass ledger compares the change of total mass per step
    against the boundary-flux and leak bookkeeping accumulated with the same
    stage weights.
    """
    q1, q2 = cfg.steady_state(leak_cell.shape[0])
    record_times = cfg.output_times()
    records_q1, records_q2 = [], []
    next_rec = 0
    dx = cfg.dx
    t = 0.0
    worst = 0.0
    while next_rec < record_times.size:
        vmax = float(np.max(np.abs(q2 / q1))) + cfg.sound_speed
        dt_cfl = CFL_NUMBER * dx / vmax
        if not np.isfinite(dt_cfl) or dt_cfl <= 0:
            raise RuntimeError("CFL-limited time step collapsed")
        dt = min(dt_cfl, record_times[next_rec] - t)

        l1a, l2a, in_a, out_a, leak_a = _rhs(q1, q2, t, cfg, leak_cell, c_d)
        q1s = q1 + dt * l1a
        q2s = q2 + dt * l2a
        l1b, l2b, in_b, out_b, leak_b = _rhs(q1s, q2s, t + dt, cfg, leak_cell, c_d)
        mass_before = np.sum(q1, axis=1) * dx
        q1 = q1 + 0.5 * dt * (l1a + l1b)
        q2 = q2 + 0.5 * dt * (l2a + l2b)
        if np.any(q1 <= 0):
            raise RuntimeError("negative density during pipe time stepping")

        mass_after = np.sum(q1, axis=1) * dx
        booked = 0.5 * dt * ((in_a - out_a - leak_a) + (in_b - out_b - leak_b))
        defect = np.max(np.abs(mass_after - mass_before - booked) / mass_after)
        worst = max(worst, float(defect))

        t += dt
        if t >= record_times[next_rec] - 1e-12:
            records_q1.append(q1.copy())
            records_q2.append(q2.copy())
            next_rec += 1
    return np.stack(records_q1, axis=-1), np.stack(records_q2, axis=-1), worst


def solve_pipe_batch(x_l, c_d, cfg: PipeConfig):
    """Solve many leak scenarios in lockstep.

    Returns (q1, q2, max_mass_imbalance) with q1, q2 of shape (batch, nx, nt),
    sampled at the storage times (k+1) T / nt.
    """
    x_l = np.atleast_1d(np.asarray(x_l, dtype=float))
    c_d = np.atleast_1d(np.asarray(c_d, dtype=float))
    if x_l.shape != c_d.shape:
        raise ValueError("leak locations and discharge coefficients must align")
    if not np.all((x_l > 0) & (x_l < cfg.length)):
        raise ValueError("leak location must lie strictly inside the pipe")
    if not np.all(c_d >= 0):
        raise ValueError("discharge coefficient must be nonnegative")
    leak_cell = np.clip((x_l / cfg.dx).astype(np.intp), 0, cfg.nx - 1)
    return _march(cfg, leak_cell, c_d)


def solve_pipe(x_l: float, c_d: float, cfg: PipeConfig) -> PipeState:
    """Single-scenario convenience wrapper around the batched march."""
    q1, q2, worst = solve_pipe_batch([x_l], [c_d], cfg)
    return PipeState(
        cfg=cfg,
        q1=q1[0],
        q2=q2[0],
        times=cfg.output_times(),
        max_mass_imbalance=worst,
    )
