"""Training datasets: joint state-parameter rows with their normalization.

Every row carries a state block and a parameter block of width >= 1: the
method estimates both at once.  Rows are stored normalized: state entries
z-scored per grid point against the training set, parameters mapped affinely
onto [-1, 1] from prior bounds (a tanh head then keeps generated parameters
inside the box) or z-scored like the state when no bounds exist (field-valued
parameters).

Files use the shared checkpoint container (:func:`mcgan.nnet.write_checkpoint`)
with kind "dataset": the header holds the problem id, block split, tanh flag
and metadata; the normalization vectors and the rows are named blobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nnet import read_checkpoint, write_checkpoint

STD_FLOOR = 1e-12
NORM_BLOBS = ("state_shift", "state_scale", "param_shift", "param_scale")


@dataclass
class Normalization:
    """Affine (de)normalization per output block."""

    state_shift: np.ndarray
    state_scale: np.ndarray
    param_shift: np.ndarray
    param_scale: np.ndarray
    param_tanh: bool = False

    @classmethod
    def fit(
        cls,
        states: np.ndarray,
        params: np.ndarray,
        param_lower=None,
        param_upper=None,
    ) -> "Normalization":
        """Z-score the state; map parameters from box bounds when given."""
        s_shift = states.mean(axis=0)
        s_scale = np.maximum(states.std(axis=0), STD_FLOOR)
        if param_lower is not None:
            lo = np.asarray(param_lower, dtype=float)
            hi = np.asarray(param_upper, dtype=float)
            p_shift = 0.5 * (lo + hi)
            p_scale = 0.5 * (hi - lo)
            tanh = True
        else:
            p_shift = params.mean(axis=0)
            p_scale = np.maximum(params.std(axis=0), STD_FLOOR)
            tanh = False
        return cls(s_shift, s_scale, p_shift, p_scale, tanh)

    def blobs(self) -> dict[str, np.ndarray]:
        """The four shift and scale vectors, keyed by field name, for a checkpoint."""
        return {name: getattr(self, name) for name in NORM_BLOBS}

    @classmethod
    def from_blobs(cls, path, header: dict, blobs: dict[str, np.ndarray]) -> "Normalization":
        """Read back :meth:`blobs`; each vector's length must be the header's block width."""
        for name in NORM_BLOBS:
            n = header["n_state"] if name.startswith("state") else header["n_param"]
            if blobs[name].shape != (n,):
                raise ValueError(f"{path}: {name} has shape {blobs[name].shape}, not ({n},)")
        return cls(*(blobs[name] for name in NORM_BLOBS), param_tanh=header["param_tanh"])

    def normalize(self, states: np.ndarray, params: np.ndarray) -> np.ndarray:
        q = (states - self.state_shift) / self.state_scale
        m = (params - self.param_shift) / self.param_scale
        if self.param_tanh and np.any(np.abs(m) > 1.0):
            raise ValueError("parameters outside their prior box")
        return np.concatenate([q, m], axis=1)

    def denormalize_state(self, q_norm: np.ndarray) -> np.ndarray:
        return q_norm * self.state_scale + self.state_shift

    def denormalize_params(self, m_norm: np.ndarray) -> np.ndarray:
        return m_norm * self.param_scale + self.param_shift


@dataclass
class Dataset:
    """Normalized (state, parameter) rows plus the maps back to physical units."""

    problem: str
    rows: np.ndarray  # (n, n_state + n_param), normalized
    n_state: int
    n_param: int
    norm: Normalization
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_param < 1:
            raise ValueError(f"n_param is {self.n_param}: every row needs a parameter block")
        if self.rows.ndim != 2 or self.rows.shape[1] != self.n_state + self.n_param:
            raise ValueError("row width does not match the block split")

    def __len__(self) -> int:
        return self.rows.shape[0]

    @classmethod
    def from_raw(
        cls,
        problem: str,
        states: np.ndarray,
        params: np.ndarray,
        param_lower=None,
        param_upper=None,
        meta: dict | None = None,
    ) -> "Dataset":
        states = np.asarray(states, dtype=float)
        params = np.asarray(params, dtype=float)
        if params.ndim == 1:
            params = params[:, None]
        norm = Normalization.fit(states, params, param_lower, param_upper)
        rows = norm.normalize(states, params)
        return cls(
            problem=problem,
            rows=rows,
            n_state=states.shape[1],
            n_param=params.shape[1],
            norm=norm,
            meta=dict(meta or {}),
        )

    def denormalized(self) -> np.ndarray:
        """Rows in physical units (tanh on the parameter head is *not* undone:
        stored parameter columns are pre-squash values in [-1, 1])."""
        q = self.norm.denormalize_state(self.rows[:, : self.n_state])
        m = self.norm.denormalize_params(self.rows[:, self.n_state :])
        return np.concatenate([q, m], axis=1)


def save_dataset(path, ds: Dataset) -> None:
    header = {
        "kind": "dataset",
        "problem": ds.problem,
        "n_state": int(ds.n_state),
        "n_param": int(ds.n_param),
        "param_tanh": bool(ds.norm.param_tanh),
        "meta": ds.meta,
    }
    write_checkpoint(path, header, dict(ds.norm.blobs(), rows=ds.rows))


def load_dataset(path) -> Dataset:
    header, blobs = read_checkpoint(path, "dataset")
    return Dataset(
        problem=header["problem"],
        rows=blobs["rows"],
        n_state=header["n_state"],
        n_param=header["n_param"],
        norm=Normalization.from_blobs(path, header, blobs),
        meta=header.get("meta", {}),
    )
