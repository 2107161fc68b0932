"""The two-stage MCGAN pipeline, composed from mcgan's public functions.

Offline (set-up): prior -> training-set simulation -> ``Dataset.from_raw`` ->
dataset save/load -> ``train_gan`` -> generator save/load.  Online: for each
observation set, ``map_estimate`` -> ``nuts_sample`` chains -> ``posterior_stats``;
the posterior means are scored with ``rrmse`` against the restricted truth.

Every call into a mcgan layer sits inside a tracer span, so the same code
gives the untraced end-to-end run (``NullTracer``) and the traced per-layer
run.  Correctness gates run outside the timed regions; a failed gate fails its
unit (a training solve or scenario, a save/load round trip, or a posterior).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from mcgan.autodiff import Tape, grad_wrt_input, second_order_grad
from mcgan.bayes import GaussianNoise, LatentPosterior, MapConfig, map_estimate, posterior_stats
from mcgan.data import Dataset, load_dataset, save_dataset
from mcgan.forward import (
    DarcyGrid,
    PipeConfig,
    darcy_state_vector,
    darcy_synth_observations,
    pipe_synth_observations,
    solve_darcy,
    solve_pipe_batch,
)
from mcgan.forward.darcy import CG_RTOL, P_LEFT
from mcgan.gan import GanConfig, load_generator, save_generator, train_gan
from mcgan.nnet import MlpSpec, init_params, mlp_forward_nodes, params_on_tape
from mcgan.priors import (
    BoxPrior,
    MaternConfig,
    kl_decompose,
    matern_covariance_matrix,
    sample_fields,
    unit_square_grid,
)
from mcgan.samplers import HmcConfig, nuts_sample

from diagnostics import max_rhat, min_bulk_ess
from hostspeed import ScaledTimer
from tracing import NullTracer, Tracer

# Span names, one per layer call the benchmark wraps; each gets a self time.
SPANS = (
    "setup", "priors.cov", "priors.kl", "priors.sample", "darcy.solve", "pipe.batch",
    "data.from_raw", "data.save", "data.load", "gan.train", "nnet.ckpt_save",
    "nnet.ckpt_load", "observe.synth", "infer", "bayes.map", "samplers.nuts",
    "bayes.grad", "bayes.push", "autodiff.gp_step", "probe",
)

# Every set-up trains its own generator from its own seed, and the online sets
# cycle over them, so one run averages over several generators: a single
# generator's quality and posterior geometry swing widely from seed to seed.
SETUP_REPS = 5
KL_TERMS = 16
PIPE_BOX = ((200.0, 1.0e-4), (1800.0, 5.0e-4))  # (x_l, c_d) lower, upper
SIM_BATCH = 128  # pipe scenarios per solve_pipe_batch call
HIDDEN = (64,)
LEARNING_RATE = 1e-3
BATCH_SIZE = 64
DIAG_SAMPLES = 2048  # generated rows behind each epoch's moment RRMSE
DIAG_EPOCHS = 15  # the GAN's moment RRMSE oscillates; report its mean over these last epochs
MAP_STEPS = 200
MAP_RESTARTS = 2
MAX_TREE_DEPTH = 5
GP_WEIGHT = 5.0
GP_REPS = 20

MASS_IMBALANCE_GATE = 1e-8
DIV_GATE_FACTOR = 100.0  # allowed |divergence| in units of the CG stopping residual
FD_STEP = 1e-6
OBS_SEED = 2111  # the observation sets' truths and noise

PROBE_GRID = 8
PROBE_SOLVES = 8
PROBE_SCENARIOS = 16


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload.  Set i uses sensor setting ``obs[i % len(obs)]``."""

    name: str
    problem: str  # "darcy" or "pipe"
    grid: int  # Darcy cells per side, or pipe nx = nt
    n_train: int  # training solves (Darcy) or scenarios (pipe)
    latent_dim: int
    epochs: int
    obs: tuple[tuple[int, float], ...]  # (sensor count, noise std)
    chains: int
    warmup: int
    draws: int
    scored_sets: int  # sets whose quality and counts are reported


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="darcy", problem="darcy", grid=10, n_train=400, latent_dim=8, epochs=30,
            obs=((16, 0.03), (64, 0.01)), chains=1, warmup=100, draws=150, scored_sets=10,
        ),
        Workload(
            name="pipe", problem="pipe", grid=16, n_train=384, latent_dim=4, epochs=30,
            obs=((2, 1500.0),), chains=1, warmup=100, draws=150, scored_sets=10,
        ),
    )
}


# ---------------------------------------------------------------------------
# Unit ledger
# ---------------------------------------------------------------------------


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, ok: bool, count: int = 1, why: str = "") -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(why)
        return ok


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# ---------------------------------------------------------------------------
# Offline stage
# ---------------------------------------------------------------------------


@dataclass
class Offline:
    generator: object
    diag: object
    basis: object  # KL basis (Darcy) or BoxPrior (pipe): draws the online truths
    dataset: Dataset
    data_bytes: int
    ckpt_bytes: int
    solve_checks: list[float]  # max |divergence| per Darcy solve, or imbalance per pipe batch
    gan_steps: int


def _simulate_darcy(w: Workload, rng, tr):
    with tr.span("priors.cov"):
        cov = matern_covariance_matrix(unit_square_grid(w.grid), MaternConfig())
    with tr.span("priors.kl"):
        basis = kl_decompose(cov)
    with tr.span("priors.sample"):
        logk = sample_fields(basis, KL_TERMS, w.n_train, rng)
    return basis, logk, _solve_all(logk, DarcyGrid(w.grid), tr)


def _solve_all(logk, grid: DarcyGrid, tr) -> list:
    fields = []
    for m in logk:
        try:
            with tr.span("darcy.solve"):
                fields.append(solve_darcy(np.exp(m), grid))
        except (ValueError, RuntimeError) as exc:
            fields.append(exc)
    return fields


def _darcy_rows(logk, fields, ledger: Ledger):
    """Gate every solve on conservation; keep the rows that pass."""
    states, params, checks = [], [], []
    for m, f in zip(logk, fields):
        if isinstance(f, Exception):
            ledger.add(False, why=f"darcy solve: {_error(f)}")
            continue
        div = float(np.max(np.abs(f.divergence())))
        tol = DIV_GATE_FACTOR * CG_RTOL * float(np.linalg.norm(2.0 * f.k[0, :] * P_LEFT))
        state = darcy_state_vector(f)
        ok = np.isfinite(div) and div <= tol and bool(np.all(np.isfinite(state)))
        checks.append(div)
        if ledger.add(ok, why=f"darcy solve: |div| {div:.3e} > {tol:.3e}"):
            states.append(state)
            params.append(m)
    return np.array(states), np.array(params), checks


def _simulate_pipe(w: Workload, rng, tr):
    prior = BoxPrior(*PIPE_BOX)
    cfg = PipeConfig(nx=w.grid, nt=w.grid)
    with tr.span("priors.sample"):
        theta = prior.sample(rng, w.n_train)
    return prior, cfg, _solve_batches(theta, cfg, tr)


def _solve_batches(theta, cfg: PipeConfig, tr) -> list:
    batches = []
    for s in range(0, len(theta), SIM_BATCH):
        th = theta[s : s + SIM_BATCH]
        try:
            with tr.span("pipe.batch"):
                batches.append((th, solve_pipe_batch(th[:, 0], th[:, 1], cfg)))
        except (ValueError, RuntimeError) as exc:
            batches.append((th, exc))
    return batches


def _pipe_rows(cfg: PipeConfig, batches, ledger: Ledger):
    """Gate every batch on its mass ledger; keep the scenarios that pass."""
    states, params, checks = [], [], []
    for th, out in batches:
        if isinstance(out, Exception):
            ledger.add(False, len(th), why=f"pipe batch: {_error(out)}")
            continue
        q1, q2, worst = out
        v = q2 / q1
        p = cfg.pressure(q1 / cfg.area)
        rows = np.concatenate([v.reshape(len(th), -1), p.reshape(len(th), -1)], axis=1)
        ok = worst < MASS_IMBALANCE_GATE and bool(np.all(np.isfinite(rows)))
        checks.append(float(worst))
        if ledger.add(ok, len(th), why=f"pipe batch: mass imbalance {worst:.3e}"):
            states.append(rows)
            params.append(th)
    if not states:
        return np.zeros((0, 2 * cfg.nx * cfg.nt)), np.zeros((0, 2)), checks
    return np.concatenate(states), np.concatenate(params), checks


def _same_dataset(a: Dataset, b: Dataset) -> bool:
    pairs = [
        (a.rows, b.rows),
        (a.norm.state_shift, b.norm.state_shift),
        (a.norm.state_scale, b.norm.state_scale),
        (a.norm.param_shift, b.norm.param_shift),
        (a.norm.param_scale, b.norm.param_scale),
    ]
    return (
        (a.problem, a.n_state, a.n_param, a.norm.param_tanh)
        == (b.problem, b.n_state, b.n_param, b.norm.param_tanh)
        and all(np.array_equal(x, y) for x, y in pairs)
    )


def offline(w: Workload, seed: int, rep: int, tr, workdir: str, ledger: Ledger) -> tuple[Offline, float]:
    """One full set-up with its own data and training seed.

    Returns the result and the set-up's seconds at reference host speed, less
    the gate checks.
    """
    rng = np.random.default_rng([seed, 0, rep])
    data_path = os.path.join(workdir, f"train{rep}.mcg1")
    ckpt_path = os.path.join(workdir, f"generator{rep}.mcgw")
    with ScaledTimer() as timer, tr.span("setup"):
        if w.problem == "darcy":
            basis, logk, fields = _simulate_darcy(w, rng, tr)
        else:
            basis, cfg, batches = _simulate_pipe(w, rng, tr)
        t_gate = time.perf_counter()
        if w.problem == "darcy":
            states, params, checks = _darcy_rows(logk, fields, ledger)
        else:
            states, params, checks = _pipe_rows(cfg, batches, ledger)
        gate_s = time.perf_counter() - t_gate
        with tr.span("data.from_raw"):
            if w.problem == "darcy":
                ds = Dataset.from_raw("darcy", states, params)
            else:
                ds = Dataset.from_raw("pipe", states, params, basis.lower, basis.upper)
        with tr.span("data.save"):
            save_dataset(data_path, ds)
        with tr.span("data.load"):
            loaded = load_dataset(data_path)
        cfg_gan = GanConfig(
            latent_dim=w.latent_dim, batch_size=BATCH_SIZE, lr=LEARNING_RATE, epochs=w.epochs,
            seed=int(rng.integers(2**31)), hidden=HIDDEN, n_diag_samples=DIAG_SAMPLES,
        )
        with tr.span("gan.train"):
            gen, diag = train_gan(loaded, cfg_gan)
        with tr.span("nnet.ckpt_save"):
            save_generator(ckpt_path, gen)
        with tr.span("nnet.ckpt_load"):
            restored = load_generator(ckpt_path)
    seconds = (timer.wall - gate_s) * timer.factor

    ledger.add(_same_dataset(ds, loaded), why="dataset save/load round trip not bit-exact")
    z = np.random.default_rng([seed, 2]).standard_normal((64, gen.latent_dim))
    ledger.add(
        np.array_equal(gen.push_batch(z), restored.push_batch(z)),
        why="generator save/load round trip not bit-exact",
    )
    result = Offline(
        generator=restored, diag=diag, basis=basis, dataset=loaded,
        data_bytes=os.path.getsize(data_path), ckpt_bytes=os.path.getsize(ckpt_path),
        solve_checks=checks, gan_steps=w.epochs * (len(loaded) // min(BATCH_SIZE, len(loaded))),
    )
    return result, seconds


# ---------------------------------------------------------------------------
# Online stage
# ---------------------------------------------------------------------------


class GradTarget:
    """Duck-typed NUTS / MAP target that counts (and, traced, spans) gradient calls."""

    def __init__(self, post: LatentPosterior, tr, span: str | None):
        self.post = post
        self.latent_prior = post.latent_prior
        self.tr = tr
        self.span = span
        self.calls = 0

    def logp_and_grad(self, z):
        self.calls += 1
        if self.span is None:
            return self.post.logp_and_grad(z)
        with self.tr.span(self.span):
            return self.post.logp_and_grad(z)


@dataclass
class SetResult:
    index: int
    ok: bool
    infer_s: float = 0.0  # seconds at reference host speed, like chain_s
    infer_wall: float = 0.0
    map_grads: int = 0
    chain_s: list[float] = field(default_factory=list)
    chain_grads: list[int] = field(default_factory=list)
    chain_draws: list[int] = field(default_factory=list)
    chain_accept: list[float] = field(default_factory=list)
    chain_ess: list[float] = field(default_factory=list)
    rhat: float = float("nan")
    samples: np.ndarray | None = None
    # posterior means and truths, pooled over sets for the RRMSE
    fit: tuple | None = None


def synth_observations(w: Workload, index: int, off: Offline, tr):
    """Workload input: truth and noisy data of observation set ``index`` (untimed).

    The sets are a fixed test set, the same for every seed: a posterior's
    RRMSE depends strongly on its truth, and the seed is there to vary the
    training data, the training and the chains.
    """
    rng = np.random.default_rng([OBS_SEED, index])
    n_sensors, noise = w.obs[index % len(w.obs)]
    with tr.span("observe.synth"):
        if w.problem == "darcy":
            m = sample_fields(off.basis, KL_TERMS, 1, rng)[0]
            obs = darcy_synth_observations(m, DarcyGrid(w.grid), 2, rng, n_sensors, noise)
        else:
            x_l, c_d = off.basis.sample(rng)
            obs = pipe_synth_observations(
                x_l, c_d, PipeConfig(nx=w.grid, nt=w.grid), 2, rng, noise_std=noise
            )
    return obs, noise


def gradient_gate(post: LatentPosterior, z: np.ndarray) -> str:
    """Tape value and gradient against the numpy log-density and central differences.

    The MAP of a leaky-ReLU generator tends to sit on an activation kink, where
    the log density has no gradient, so the check runs just off the MAP point
    and at a point further out where the gradient is far from zero.  Returns
    an empty string when both points pass.
    """
    d = z.size
    direction = np.where(np.arange(d) % 2 == 0, 1.0, -1.0) / np.sqrt(d)
    for point in (z + 1e-3 * direction, z + 0.1 * direction):
        val, grad = post.logp_and_grad(point)
        ref = post.log_unnorm(point)
        if not abs(val - ref) <= 1e-9 * (1.0 + abs(ref)):
            return f"logp {val!r} != numpy log density {ref!r}"
        steps = np.eye(d) * FD_STEP
        fd = np.array(
            [(post.log_unnorm(point + e) - post.log_unnorm(point - e)) / (2 * FD_STEP) for e in steps]
        )
        # rounding of the differenced log density plus a relative allowance
        tol = 1e-5 * (1.0 + np.max(np.abs(fd))) + 1e-13 * (1.0 + abs(ref)) / FD_STEP
        err = float(np.max(np.abs(fd - grad)))
        if not err <= tol:
            return f"gradient differs from central differences by {err:.3e} (tol {tol:.3e})"
    return ""


def infer(w: Workload, seed: int, index: int, off: Offline, obs, noise, tr, ledger: Ledger) -> SetResult:
    """Timed online stage of one observation set, then its gates (untimed)."""
    res = SetResult(index=index, ok=False)
    gen = off.generator
    chains = []
    try:
        with ScaledTimer() as timer, tr.span("infer"):
            post = LatentPosterior(gen, obs.op, GaussianNoise(noise), obs.y)
            map_target = GradTarget(post, tr, None)
            with tr.span("bayes.map"):
                z_map = map_estimate(
                    map_target, MapConfig(steps=MAP_STEPS, restarts=MAP_RESTARTS, seed=seed + index)
                )
            for c in range(w.chains):
                target = GradTarget(post, tr, "bayes.grad")
                cfg = HmcConfig(
                    warmup=w.warmup, max_tree_depth=MAX_TREE_DEPTH,
                    seed=int(np.random.default_rng([seed, 4, index, c]).integers(2**31)),
                )
                tc = time.perf_counter()
                with tr.span("samplers.nuts"):
                    chain = nuts_sample(target, cfg, w.warmup + w.draws, z_map)
                res.chain_s.append(time.perf_counter() - tc)
                res.chain_grads.append(target.calls)
                res.chain_draws.append(len(chain))
                res.chain_accept.append(chain.acceptance_rate)
                chains.append(chain)
            kept = np.concatenate([ch.post_burn() for ch in chains])
            with tr.span("bayes.push"):
                stats = posterior_stats(kept, gen)
        res.infer_s = timer.seconds
        res.infer_wall = timer.wall
        res.chain_s = [c * timer.factor for c in res.chain_s]
        res.map_grads = map_target.calls
        res.samples = kept

        why = gradient_gate(post, z_map)
        finite = all(
            np.all(np.isfinite(a)) for a in (stats.q_mean, stats.q_std, stats.m_mean, stats.m_std)
        )
        if not finite:
            why = why or "non-finite posterior statistics"
        if not why:
            res.chain_ess = [min_bulk_ess(ch.post_burn()) for ch in chains]
            res.rhat = max_rhat([ch.post_burn() for ch in chains])
            res.fit = (stats.q_mean, obs.truth_state, stats.m_mean, obs.truth_params)
            if not all(np.isfinite(v) for v in (*res.chain_ess, res.rhat)):
                why = "non-finite chain diagnostics"
    except Exception as exc:  # a unit boundary: record the failure and go on
        why = f"posterior: {_error(exc)}"
    res.ok = ledger.add(not why, why=f"set {index}: {why}")
    return res


# ---------------------------------------------------------------------------
# Layer probes for the traced run
# ---------------------------------------------------------------------------


def gp_step_probe(w: Workload, off: Offline, seed: int, tr) -> int:
    """One discriminator loss-plus-gradient-penalty parameter gradient, repeated.

    Built from public functions at the workload's batch size and row width.
    Returns the tape length of one step.
    """
    rng = np.random.default_rng([seed, 3])
    width = off.dataset.rows.shape[1]
    bs = min(BATCH_SIZE, len(off.dataset))
    spec = MlpSpec((width, *HIDDEN, 1))
    params = init_params(spec, rng)
    real = off.dataset.rows[:bs]
    fake = off.generator.raw_batch(rng.standard_normal((bs, w.latent_dim)))
    eps = rng.uniform(size=bs)[:, None]
    for _ in range(GP_REPS):
        with tr.span("autodiff.gp_step"):
            tape = Tape()
            nodes = params_on_tape(params, tape)
            d_real = mlp_forward_nodes(spec, nodes, tape.const(real))
            d_fake = mlp_forward_nodes(spec, nodes, tape.const(fake))
            x_hat = tape.leaf(eps * real + (1.0 - eps) * fake)
            g = grad_wrt_input(mlp_forward_nodes(spec, nodes, x_hat).sum(), x_hat)
            penalty = (g.l2norm(axis=1) - 1.0).square().mean()
            loss = d_real.mean().scale(-1.0) + d_fake.mean() + penalty.scale(GP_WEIGHT)
            second_order_grad(loss, [n for pair in nodes for n in pair])
    return len(tape)


def layer_probes(w: Workload, seed: int, tr, ledger: Ledger) -> dict:
    """Small fixed calls into the forward layers this workload's pipeline skips.

    They run after the pipeline, outside every end-to-end timing, so that each
    per-layer metric is measured on every workload.
    """
    rng = np.random.default_rng([seed, 5])
    with tr.span("probe"):
        if w.problem == "pipe":
            with tr.span("priors.cov"):
                cov = matern_covariance_matrix(unit_square_grid(PROBE_GRID), MaternConfig())
            with tr.span("priors.kl"):
                basis = kl_decompose(cov)
            logk = sample_fields(basis, KL_TERMS, PROBE_SOLVES, rng)
            fields = _solve_all(logk, DarcyGrid(PROBE_GRID), tr)
            return {"kl_n": basis.size, "darcy_checks": _darcy_rows(logk, fields, ledger)[2]}
        cfg = PipeConfig(nx=16, nt=16)
        theta = BoxPrior(*PIPE_BOX).sample(rng, PROBE_SCENARIOS)
        batches = _solve_batches(theta, cfg, tr)
        return {"scenarios": PROBE_SCENARIOS, "pipe_checks": _pipe_rows(cfg, batches, ledger)[2]}


# ---------------------------------------------------------------------------
# Whole workload
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    workload: Workload
    ledger: Ledger
    setup_s: list[float]  # untraced set-up walls
    offlines: list[Offline]  # one per set-up; set i uses offlines[i % SETUP_REPS]
    traced_rep: int = -1
    tracer: Tracer | None = None
    sets: list[SetResult] = field(default_factory=list)  # untraced, scored ones first
    traced_sets: list[SetResult] = field(default_factory=list)
    traced_setup_s: float = 0.0
    gp_tape_nodes: int = 0
    probes: dict = field(default_factory=dict)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, workdir_root: str) -> RunRecord:
    """Run one workload.

    Untraced: ``SETUP_REPS`` set-ups, then observation sets (the scored ones
    first) until ``seconds`` of online wall time have passed.  Traced: the middle set-up and the scored sets run under the
    tracer, and the scored sets are repeated untraced for the overhead figure.
    """
    ledger = Ledger()
    null = NullTracer()
    rec = RunRecord(workload=w, ledger=ledger, setup_s=[], offlines=[])
    if trace:
        rec.tracer = Tracer()
        rec.traced_rep = SETUP_REPS // 2
    workdir = tempfile.mkdtemp(prefix="run-", dir=workdir_root)
    try:
        for rep in range(SETUP_REPS):
            traced = rep == rec.traced_rep
            off, wall = offline(w, seed, rep, rec.tracer if traced else null, workdir, ledger)
            rec.offlines.append(off)
            if traced:
                rec.traced_setup_s = wall
            else:
                rec.setup_s.append(wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def run_set(index, tr):
        off = rec.offlines[index % SETUP_REPS]
        obs, noise = synth_observations(w, index, off, tr)
        return infer(w, seed, index, off, obs, noise, tr, ledger)

    if trace:
        rec.traced_sets = [run_set(i, rec.tracer) for i in range(w.scored_sets)]
    online = 0.0
    while len(rec.sets) < w.scored_sets or (not trace and online < seconds):
        rec.sets.append(run_set(len(rec.sets), null))
        online += rec.sets[-1].infer_wall
    if trace:
        for a, b in zip(rec.traced_sets, rec.sets):
            same = a.samples is not None and b.samples is not None and np.array_equal(a.samples, b.samples)
            ledger.add(same, why=f"set {a.index}: traced and untraced chains differ")
        rec.gp_tape_nodes = gp_step_probe(w, rec.offlines[rec.traced_rep], seed, rec.tracer)
        rec.probes = layer_probes(w, seed, rec.tracer, ledger)
    return rec
