"""Wasserstein GAN with gradient penalty over joint state-parameter rows.

Offline stage: the generator learns to map a Gaussian latent space onto the
normalized training rows.  The discriminator is driven toward the 1-Lipschitz
dual witness by penalizing (||grad D|| - 1)^2 at points interpolated between
real and generated rows.  Both networks are leaky-ReLU with an identity
output, so with the critic's slopes frozen the penalty's parameter gradient
is two first-order sweeps (double backprop).  Both steps run on arrays, on
nnet's one hidden-layer pass and one reverse sweep, in the autodiff tape's
floating-point order; the tape is their test oracle.  Training alternates a
configurable number of discriminator steps per generator step, both under
RMSProp.

The trained :class:`Generator` carries the de-normalization maps, exposes
plain sampling, closed-form pointwise moments for the training monitor and
the posterior statistics, and `observer(idx)`, whose head is column-sliced once
so the latent posterior touches only the output entries the sensors read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteError
from .data import Dataset, Normalization
from .metrics import rrmse
from .nnet import (
    MlpParams,
    MlpSpec,
    RmspropState,
    init_params,
    mlp_apply,
    mlp_cotangents,
    mlp_hidden_pass,
    read_layers,
    rmsprop_step,
    write_layers,
)


class TrainingDiverged(RuntimeError):
    """Raised when a loss goes non-finite; carries the offending epoch."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class GanConfig:
    latent_dim: int
    gp_weight: float = 5.0
    batch_size: int = 64
    lr: float = 1e-4
    n_disc_per_gen: int = 1
    epochs: int = 100
    seed: int = 0
    hidden: tuple[int, ...] = (64,)
    n_diag_samples: int = 256

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ValueError("latent dimension must be >= 1")
        if not (np.isfinite(self.gp_weight) and self.gp_weight >= 0):
            raise ValueError("gradient-penalty weight gp_weight must be finite and nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError("learning rate lr must be finite and positive")
        if self.n_disc_per_gen < 1:
            raise ValueError("need at least one discriminator step per generator step")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.n_diag_samples < 2:
            raise ValueError("n_diag_samples must be >= 2: a std needs two generated rows")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))


class Generator:
    """Latent-to-data map with blockwise output heads and de-normalization."""

    def __init__(self, params: MlpParams, n_state: int, n_param: int,
                 norm: Normalization, meta: dict | None = None):
        if n_param < 1:
            raise ValueError(f"n_param is {n_param}: every generated row needs a parameter block")
        if params.spec.out_width != n_state + n_param:
            raise ValueError("output width must equal state length + parameter length")
        self.params = params
        self.n_state = n_state
        self.n_param = n_param
        self.norm = norm
        self.meta = dict(meta or {})

    @property
    def latent_dim(self) -> int:
        return self.params.spec.in_width

    # -- normalized-space forward ------------------------------------------
    def raw_batch(self, z: np.ndarray) -> np.ndarray:
        """Normalized rows, with the tanh parameter head applied (pipe case)."""
        out = mlp_apply(self.params, np.atleast_2d(np.asarray(z, dtype=float)))
        self._squash(out)
        return out

    def _squash(self, rows: np.ndarray) -> bool:
        """Apply the tanh parameter head to rows in place; True when there is one."""
        head = bool(self.norm.param_tanh)
        if head:
            rows[:, self.n_state :] = np.tanh(rows[:, self.n_state :])
        return head

    # -- physical-space forward --------------------------------------------
    def push_batch(self, z: np.ndarray) -> np.ndarray:
        """Physical rows: one affine pass over the whole normalized row."""
        out = self.raw_batch(z)
        out *= np.concatenate([self.norm.state_scale, self.norm.param_scale])
        out += np.concatenate([self.norm.state_shift, self.norm.param_shift])
        return out

    def push(self, z: np.ndarray) -> np.ndarray:
        return self.push_batch(np.asarray(z, dtype=float)[None, :])[0]

    def moments(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise mean and std of push_batch(z), without forming its rows.

        A column that the last layer maps affinely, by w_j and b_j, has mean
        (h̄ @ w_j + b_j)·scale + shift and variance w_jᵀ (H_cᵀ H_c / n) w_j·scale²,
        with H_c the centred hidden features: one Gram matrix of hidden width
        squared serves every such column.  The tanh head's columns are formed
        from the hidden features, those columns only.
        """
        w, b = self.params.weights[-1], self.params.biases[-1]
        h = mlp_hidden_pass(self.params, np.atleast_2d(np.asarray(z, dtype=float)))[0][-1]
        k = self.n_state if self.norm.param_tanh else w.shape[1]
        mean, std = np.empty(w.shape[1]), np.empty(w.shape[1])
        h_mean = h.mean(axis=0)
        h_c = h - h_mean
        w_k = w[:, :k]
        mean[:k] = h_mean @ w_k + b[:k]
        var = np.sum(((h_c.T @ h_c) @ w_k) * w_k, axis=0) / h.shape[0]
        std[:k] = np.sqrt(np.maximum(var, 0.0))
        if k < w.shape[1]:
            bent = np.tanh(h @ w[:, k:] + b[k:])
            mean[k:] = bent.mean(axis=0)
            std[k:] = bent.std(axis=0)
        scale = np.concatenate([self.norm.state_scale, self.norm.param_scale])
        shift = np.concatenate([self.norm.state_shift, self.norm.param_shift])
        return mean * scale + shift, std * scale

    # -- observed head -------------------------------------------------------
    def _head(self, idx: np.ndarray):
        """Final layer restricted to observed state columns, with their affine."""
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size and idx.max() >= self.n_state:
            raise IndexError("observed indices must fall inside the state block")
        # take() keeps C order; W[:, idx] is F-ordered, and BLAS sums it in another order
        return (
            self.params.weights[-1].take(idx, axis=1),
            self.params.biases[-1][idx],
            self.norm.state_scale[idx],
            self.norm.state_shift[idx],
        )

    def observer(self, idx):
        """z -> (observed state values, back to z for a cotangent on them).  The head
        is sliced here, once, so build this after training; IndexError off the state block."""
        w, b, scale, shift = self._head(idx)
        weights = [*self.params.weights[:-1], w]

        def observe(z):
            ins, slopes = mlp_hidden_pass(self.params, z)
            def back(cot):
                return mlp_cotangents(weights, slopes, cot * scale)[0] @ weights[0].T
            return (ins[-1] @ w + b) * scale + shift, back

        return observe


# ---------------------------------------------------------------------------
# Training steps: losses and parameter gradients, in the tape's floating-point
# order (tests/test_gan.py holds the tape versions as the oracle)
# ---------------------------------------------------------------------------


def _mean(x: np.ndarray):
    return np.sum(x) * (1.0 / x.size)


def _finite(loss) -> float:
    if not np.isfinite(loss):
        raise NonFiniteError("training loss is not finite")
    return float(loss)


def _forward(params: MlpParams, x: np.ndarray):
    """Output rows, each layer's input and each hidden layer's slopes."""
    ins, slopes = mlp_hidden_pass(params, x)
    return ins[-1] @ params.weights[-1] + params.biases[-1], ins, slopes


def _add_param_grads(grads: list, ins, cots) -> list:
    """Add each layer's weight and bias gradient to grads ([w0, b0, w1, ...])."""
    for k, (h, c) in enumerate(zip(ins, cots)):
        for i, g in ((2 * k, h.T @ c), (2 * k + 1, np.sum(c, axis=0))):
            grads[i] = g if grads[i] is None else grads[i] + g
    return grads


def _critic_step(d: MlpParams, real, fake, eps, gp_weight: float):
    """Critic loss mean D(fake) - mean D(real) + gp_weight * penalty, and its gradients.

    The penalty's gradient: g = grad_x D at the interpolates, then the seed
    s = d penalty / d g carried forward through the frozen slopes gives the
    weight gradients t_k.T @ c_k.  The biases get no penalty term.  Gradients
    add up in the tape's order: penalty, fake rows, real rows.
    """
    with np.errstate(all="ignore"):
        out_r, ins_r, slopes_r = _forward(d, real)
        out_f, ins_f, slopes_f = _forward(d, fake)
        loss = _mean(out_r) * -1.0 + _mean(out_f)
        grads = [None] * (2 * len(d.weights))
        if gp_weight > 0.0:
            mix = eps[:, None] * real + (1.0 - eps[:, None]) * fake
            _, slopes = mlp_hidden_pass(d, mix)
            cots = mlp_cotangents(d.weights, slopes, np.ones((mix.shape[0], 1)))
            g = cots[0] @ d.weights[0].T
            norm = np.sqrt(np.sum(g * g, axis=1))
            dev = norm + -1.0
            loss = loss + _mean(dev * dev) * gp_weight
            cot = gp_weight * np.full(dev.shape, 1.0 / dev.size) * dev * 2.0
            t = g * (cot / (norm + 1e-300))[:, None]
            for k, c in enumerate(cots):
                grads[2 * k] = t.T @ c
                if k < len(slopes):
                    t = (t @ d.weights[k]) * slopes[k]
        per_row = np.full(out_f.shape, 1.0 / out_f.size)
        _add_param_grads(grads, ins_f, mlp_cotangents(d.weights, slopes_f, per_row))
        _add_param_grads(grads, ins_r, mlp_cotangents(d.weights, slopes_r, per_row * -1.0))
    return _finite(loss), grads


def _generator_step(gen: Generator, d: MlpParams, z: np.ndarray):
    """Generator loss -mean D(G(z)), critic held fixed, and the generator's gradients."""
    with np.errstate(all="ignore"):
        fake, ins, slopes = _forward(gen.params, z)
        head = gen._squash(fake)
        score, _, slopes_d = _forward(d, fake)
        loss = _mean(score) * -1.0
        per_row = np.full(score.shape, 1.0 / score.size) * -1.0
        cot = mlp_cotangents(d.weights, slopes_d, per_row)[0] @ d.weights[0].T
        if head:
            par = fake[:, gen.n_state :]
            cot[:, gen.n_state :] *= 1.0 - par * par
        cots = mlp_cotangents(gen.params.weights, slopes, cot)
        grads = _add_param_grads([None] * (2 * len(gen.params.weights)), ins, cots)
    return _finite(loss), grads


@dataclass
class TrainDiagnostics:
    """Per-epoch loss and prior-moment convergence records."""

    epochs: list[int] = field(default_factory=list)
    d_loss: list[float] = field(default_factory=list)
    g_loss: list[float] = field(default_factory=list)
    rrmse_mean: list[float] = field(default_factory=list)
    rrmse_std: list[float] = field(default_factory=list)

    def append(self, epoch, d, g, rm, rs):
        self.epochs.append(int(epoch))
        self.d_loss.append(float(d))
        self.g_loss.append(float(g))
        self.rrmse_mean.append(float(rm))
        self.rrmse_std.append(float(rs))


def _moment_rrmse(gen: Generator, ref_mean, ref_std, n_samples: int,
                  rng: np.random.Generator) -> tuple[float, float]:
    """RRMSE of the pointwise mean and std against reference moments, in physical
    units; the generated side comes in closed form from n_samples latent draws."""
    mean, std = gen.moments(rng.standard_normal((n_samples, gen.latent_dim)))
    return rrmse(mean, ref_mean), rrmse(std, ref_std)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train_gan(dataset: Dataset, cfg: GanConfig) -> tuple[Generator, TrainDiagnostics]:
    """Alternating WGAN-GP training over shuffled minibatches.

    Runs cfg.n_disc_per_gen discriminator updates per generator update, all
    with RMSProp at the configured rate; deterministic for a fixed seed.
    After each epoch the moment monitor compares the generator's closed-form
    moments (:meth:`Generator.moments`) with those of the de-normalized
    training rows, a random 2,048 of them when there are more; the reference
    moments are taken once.  Raises :class:`TrainingDiverged` when a loss
    stops being finite.
    """
    rows = dataset.rows
    n = rows.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 training rows, the dataset has {n}")
    bs = min(cfg.batch_size, n)
    if cfg.n_disc_per_gen > n // bs:
        raise ValueError(f"n_disc_per_gen={cfg.n_disc_per_gen} exceeds the {n // bs} critic"
                         " steps of an epoch, so the generator would never step")
    rng = np.random.default_rng(cfg.seed)
    width = dataset.n_state + dataset.n_param
    g_params = init_params(MlpSpec((cfg.latent_dim, *cfg.hidden, width)), rng)
    d_params = init_params(MlpSpec((width, *cfg.hidden, 1)), rng)
    gen = Generator(g_params, dataset.n_state, dataset.n_param, dataset.norm,
                    meta=dict(dataset.meta))
    g_state = RmspropState.for_params(g_params, cfg.lr)
    d_state = RmspropState.for_params(d_params, cfg.lr)

    ref_rows = dataset.denormalized()
    if ref_rows.shape[0] > 2048:
        ref_rows = ref_rows[rng.choice(ref_rows.shape[0], 2048, replace=False)]
    ref_mean, ref_std = ref_rows.mean(axis=0), ref_rows.std(axis=0)

    diag = TrainDiagnostics()

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        d_losses, g_losses = [], []
        disc_count = 0
        try:
            for start in range(0, n - bs + 1, bs):
                batch = rows[order[start : start + bs]]
                z = rng.standard_normal((bs, cfg.latent_dim))
                eps = rng.uniform(0.0, 1.0, size=bs)
                loss, grads = _critic_step(d_params, batch, gen.raw_batch(z), eps, cfg.gp_weight)
                d_losses.append(loss)
                rmsprop_step(d_state, d_params, grads)

                disc_count += 1
                if disc_count % cfg.n_disc_per_gen == 0:
                    z = rng.standard_normal((bs, cfg.latent_dim))
                    loss, grads = _generator_step(gen, d_params, z)
                    g_losses.append(loss)
                    rmsprop_step(g_state, g_params, grads)
        except NonFiniteError as exc:
            raise TrainingDiverged(epoch) from exc

        mean_d = float(np.mean(d_losses))
        mean_g = float(np.mean(g_losses))
        if not (np.isfinite(mean_d) and np.isfinite(mean_g)):
            raise TrainingDiverged(epoch)
        rm, rs = _moment_rrmse(gen, ref_mean, ref_std, cfg.n_diag_samples,
                               np.random.default_rng(cfg.seed + 7919 + epoch))
        diag.append(epoch, mean_d, mean_g, rm, rs)
    return gen, diag


# ---------------------------------------------------------------------------
# Checkpointing (shared "MCGW" container)
# ---------------------------------------------------------------------------


def save_generator(path, gen: Generator) -> None:
    header = {
        "kind": "generator",
        "n_state": gen.n_state,
        "n_param": gen.n_param,
        "param_tanh": bool(gen.norm.param_tanh),
        "meta": gen.meta,
    }
    write_layers(path, gen.params, header, gen.norm.blobs())


def load_generator(path) -> Generator:
    params, header, blobs = read_layers(path, "generator")
    norm = Normalization.from_blobs(path, header, blobs)
    return Generator(
        params, header["n_state"], header["n_param"], norm, header.get("meta", {})
    )
