from dataclasses import replace

import numpy as np
import pytest

from mcgan import gan
from mcgan.autodiff import NonFiniteError, Tape, backward, concat, grad_wrt_input
from mcgan.bayes import posterior_stats
from mcgan.data import Dataset, load_dataset, save_dataset
from mcgan.gan import (
    Generator,
    GanConfig,
    TrainDiagnostics,
    TrainingDiverged,
    _critic_step,
    _generator_step,
    _moment_rrmse,
    load_generator,
    save_generator,
    train_gan,
)
from mcgan.nnet import (
    MlpSpec,
    RmspropState,
    init_params,
    mlp_forward,
    mlp_forward_nodes,
    params_on_tape,
    read_checkpoint,
    rmsprop_step,
    write_checkpoint,
)


def tiny_dataset(box: bool = True) -> Dataset:
    rng = np.random.default_rng(0)
    states = rng.normal(size=(32, 4))
    params = rng.uniform([0.0, -1.0], [2.0, 1.0], size=(32, 2))
    if not box:  # z-scored parameters, no tanh head
        return Dataset.from_raw("field", states, params)
    return Dataset.from_raw("box", states, params, [0.0, -1.0], [2.0, 1.0], meta={"n": 32})


def tiny_generator(kind: str, rng) -> Generator:
    """An untrained generator over tiny_dataset's 4 state columns, shaped by kind."""
    ds = tiny_dataset(kind == "tanh_head")
    norm = ds.norm
    if kind == "tiny_scale":  # a pressure-like column: physical rows round it away
        shift, scale = norm.state_shift.copy(), norm.state_scale.copy()
        shift[1], scale[1] = 5e6, 1e-9
        norm = replace(norm, state_shift=shift, state_scale=scale)
    spec = MlpSpec((3, *((8, 6) if kind == "two_hidden" else (8,)), 6))
    return Generator(init_params(spec, rng), 4, 2, norm)


# ---------------------------------------------------------------------------
# Oracle: WGAN-GP training with every step on the autodiff tape
# ---------------------------------------------------------------------------


def disc_loss_node(tape, d_spec, d_nodes, real, fake, eps, gp_weight):
    d_real = mlp_forward_nodes(d_spec, d_nodes, tape.const(real))
    d_fake = mlp_forward_nodes(d_spec, d_nodes, tape.const(fake))
    loss = d_real.mean().scale(-1.0) + d_fake.mean()
    if gp_weight > 0.0:
        mix = eps[:, None] * real + (1.0 - eps[:, None]) * fake
        x_hat = tape.leaf(mix)
        d_hat = mlp_forward_nodes(d_spec, d_nodes, x_hat)
        g = grad_wrt_input(d_hat.sum(), x_hat)
        penalty = (g.l2norm(axis=1) - 1.0).square().mean()
        loss = loss + penalty.scale(gp_weight)
    return loss


def raw_nodes(gen, layer_nodes, z_node):
    out = mlp_forward_nodes(gen.params.spec, layer_nodes, z_node)
    if gen.norm.param_tanh:
        state = out.slice(0, gen.n_state)
        par = out.slice(gen.n_state, gen.n_state + gen.n_param).tanh()
        out = concat([state, par])
    return out


def apply_step(state, params, loss_node, layer_nodes):
    flat_nodes = [n for pair in layer_nodes for n in pair]
    grads = backward(loss_node, wrt=flat_nodes)
    rmsprop_step(state, params, [grads[n.idx] for n in flat_nodes])


def tape_train(dataset, cfg):
    """train_gan's loop, with the critic and generator steps taken on the tape."""
    rng = np.random.default_rng(cfg.seed)
    width = dataset.n_state + dataset.n_param
    g_params = init_params(MlpSpec((cfg.latent_dim, *cfg.hidden, width)), rng)
    d_spec = MlpSpec((width, *cfg.hidden, 1))
    d_params = init_params(d_spec, rng)
    gen = Generator(g_params, dataset.n_state, dataset.n_param, dataset.norm, dict(dataset.meta))
    g_state = RmspropState.for_params(g_params, cfg.lr)
    d_state = RmspropState.for_params(d_params, cfg.lr)
    ref_rows = dataset.denormalized()
    assert len(ref_rows) <= 2048  # no monitor subsample to draw
    ref_mean, ref_std = ref_rows.mean(axis=0), ref_rows.std(axis=0)
    rows, n = dataset.rows, len(dataset)
    bs = min(cfg.batch_size, n)
    diag = TrainDiagnostics()
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        d_losses, g_losses = [], []
        for step, start in enumerate(range(0, n - bs + 1, bs), 1):
            batch = rows[order[start : start + bs]]
            z = rng.standard_normal((bs, cfg.latent_dim))
            eps = rng.uniform(0.0, 1.0, size=bs)
            fake = gen.raw_batch(z)
            tape = Tape()
            d_nodes = params_on_tape(d_params, tape)
            l_d = disc_loss_node(tape, d_spec, d_nodes, batch, fake, eps, cfg.gp_weight)
            d_losses.append(float(l_d.value))
            apply_step(d_state, d_params, l_d, d_nodes)
            if step % cfg.n_disc_per_gen == 0:
                z = rng.standard_normal((bs, cfg.latent_dim))
                tape = Tape()
                g_nodes = params_on_tape(g_params, tape)
                fake_node = raw_nodes(gen, g_nodes, tape.const(z))
                l_g = mlp_forward(d_params, fake_node).mean().scale(-1.0)
                g_losses.append(float(l_g.value))
                apply_step(g_state, g_params, l_g, g_nodes)
        rm, rs = _moment_rrmse(
            gen, ref_mean, ref_std, cfg.n_diag_samples,
            np.random.default_rng(cfg.seed + 7919 + epoch),
        )
        diag.append(epoch, np.mean(d_losses), np.mean(g_losses), rm, rs)
    return gen, diag


class TestCheckpoint:
    def test_push_batch_bit_exact_after_roundtrip(self, tmp_path):
        cfg = GanConfig(latent_dim=2, batch_size=16, epochs=2, hidden=(8,), n_diag_samples=8)
        gen, _ = train_gan(tiny_dataset(), cfg)
        save_generator(tmp_path / "g.bin", gen)
        loaded = load_generator(tmp_path / "g.bin")
        assert (loaded.n_state, loaded.n_param, loaded.meta) == (gen.n_state, gen.n_param, gen.meta)
        assert loaded.params.spec == gen.params.spec
        z = np.random.default_rng(1).standard_normal((20, 2))
        np.testing.assert_array_equal(loaded.push_batch(z), gen.push_batch(z))

    def test_dataset_file_rejected(self, tmp_path):
        save_dataset(tmp_path / "d.bin", tiny_dataset())
        with pytest.raises(ValueError):
            load_generator(tmp_path / "d.bin")


@pytest.mark.parametrize("length", [1, 2])
@pytest.mark.parametrize("kind", ["dataset", "generator"])
def test_normalisation_length_rejected(tmp_path, kind, length):
    rng = np.random.default_rng(3)
    ds = Dataset.from_raw("box", rng.normal(size=(8, 3)), rng.uniform(size=(8, 1)), [0.0], [1.0])
    path = tmp_path / f"{kind}.bin"
    if kind == "dataset":
        save_dataset(path, ds)
    else:
        save_generator(path, Generator(init_params(MlpSpec((2, 4)), rng), 3, 1, ds.norm))
    header, blobs = read_checkpoint(path, kind)
    for name in ("state_shift", "state_scale"):
        blobs[name] = blobs[name][:length]
    write_checkpoint(path, header, blobs)
    with pytest.raises(ValueError, match="state_s") as err:
        (load_dataset if kind == "dataset" else load_generator)(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "field, value",
    [
        ("batch_size", 0),
        ("lr", -1e-3),
        ("lr", 0.0),
        ("lr", float("nan")),
        ("lr", float("inf")),
        ("epochs", -1),
        ("epochs", 0),
        ("gp_weight", float("nan")),
        ("gp_weight", float("inf")),
        ("n_diag_samples", 1),
        ("n_diag_samples", 0),
    ],
)
def test_config_rejects_settings_that_cannot_train(field, value):
    with pytest.raises(ValueError, match=field):
        GanConfig(latent_dim=2, **{field: value})


def test_train_rejects_more_critic_steps_than_an_epoch_has():
    # 32 rows at batch 16 make 2 critic steps per epoch, so the generator would never step
    cfg = GanConfig(latent_dim=2, batch_size=16, n_disc_per_gen=3, epochs=1, hidden=(8,))
    with pytest.raises(ValueError, match="n_disc_per_gen"):
        train_gan(tiny_dataset(), cfg)


def test_train_rejects_a_single_row_before_any_step(monkeypatch):
    steps = []
    critic_step = gan._critic_step
    monkeypatch.setattr(gan, "_critic_step", lambda *args: steps.append(1) or critic_step(*args))
    ds = tiny_dataset()
    one_row = Dataset("box", ds.rows[:1], ds.n_state, ds.n_param, ds.norm)
    with pytest.raises(ValueError, match="has 1"):
        train_gan(one_row, GanConfig(latent_dim=2, epochs=1, hidden=(8,)))
    assert steps == []


def assert_clear_of_kinks(params, x):
    """Central differences need every leaky-ReLU unit to stay on one side of its kink."""
    h = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        pre = h @ w + b
        assert np.min(np.abs(pre)) > 1e-3
        h = np.maximum(pre, 0.2 * pre)
    return h @ params.weights[-1] + params.biases[-1]


def central_differences(loss, t, step=1e-6):
    """d loss / d t entry by entry, perturbing t in place."""
    fd = np.empty_like(t)
    for i in np.ndindex(t.shape):
        orig = t[i]
        t[i] = orig + step
        up = loss()
        t[i] = orig - step
        down = loss()
        t[i] = orig
        fd[i] = (up - down) / (2.0 * step)
    return fd


def test_critic_loss_gradients_match_central_differences():
    for hidden, seed in (((7,), 0), ((7, 6), 1)):
        rng = np.random.default_rng(seed)
        params = init_params(MlpSpec((5, *hidden, 1)), rng)
        for b in params.biases[:-1]:
            b[:] = rng.uniform(-0.3, 0.3, size=b.shape)
        real = rng.standard_normal((6, 5))
        fake = rng.standard_normal((6, 5))
        eps = rng.uniform(0.0, 1.0, size=6)
        mix = eps[:, None] * real + (1.0 - eps[:, None]) * fake
        assert_clear_of_kinks(params, np.concatenate([real, fake, mix]))

        _, grads = _critic_step(params, real, fake, eps, 5.0)
        for t, grad in zip(params.tensors(), grads):
            fd = central_differences(lambda: _critic_step(params, real, fake, eps, 5.0)[0], t)
            np.testing.assert_allclose(grad, fd, rtol=0.0, atol=1e-8)
        assert np.all(grads[-1] == 0.0)


@pytest.mark.parametrize("box", [True, False], ids=["tanh_head", "z_scored"])
@pytest.mark.parametrize("hidden", [(7,), (7, 6)], ids=["one_hidden", "two_hidden"])
def test_generator_loss_gradients_match_central_differences(hidden, box):
    ds = tiny_dataset(box)
    assert ds.norm.param_tanh == box
    rng = np.random.default_rng(len(hidden) + 2 * box)
    width = ds.n_state + ds.n_param
    gen = Generator(init_params(MlpSpec((3, *hidden, width)), rng), ds.n_state, ds.n_param, ds.norm)
    critic = init_params(MlpSpec((width, *hidden, 1)), rng)
    for b in gen.params.biases[:-1] + critic.biases[:-1]:
        b[:] = rng.uniform(-0.3, 0.3, size=b.shape)
    z = rng.standard_normal((6, 3))

    fake = assert_clear_of_kinks(gen.params, z)
    assert gen._squash(fake) == box
    assert_clear_of_kinks(critic, fake)

    _, grads = _generator_step(gen, critic, z)
    for t, grad in zip(gen.params.tensors(), grads):
        fd = central_differences(lambda: _generator_step(gen, critic, z)[0], t)
        np.testing.assert_allclose(grad, fd, rtol=0.0, atol=1e-8)


class TestClosedFormTraining:
    @pytest.mark.parametrize("n_disc", [1, 2])
    @pytest.mark.parametrize("gp_weight", [5.0, 0.0])
    @pytest.mark.parametrize("box", [True, False], ids=["tanh_head", "z_scored"])
    @pytest.mark.parametrize("hidden", [(8,), (8, 6)], ids=["one_hidden", "two_hidden"])
    def test_matches_tape_bit_for_bit(self, hidden, box, gp_weight, n_disc):
        ds = tiny_dataset(box)
        assert ds.norm.param_tanh == box
        cfg = GanConfig(
            latent_dim=3, gp_weight=gp_weight, batch_size=8, lr=1e-2, n_disc_per_gen=n_disc,
            epochs=3, seed=4, hidden=hidden, n_diag_samples=16,
        )
        gen, diag = train_gan(ds, cfg)
        ref, ref_diag = tape_train(ds, cfg)
        for got, want in zip(gen.params.tensors(), ref.params.tensors()):
            np.testing.assert_array_equal(got, want)
        for name in ("epochs", "d_loss", "g_loss", "rrmse_mean", "rrmse_std"):
            assert getattr(diag, name) == getattr(ref_diag, name), name

    def test_builds_no_tape(self, monkeypatch):
        def no_tape(self):
            raise AssertionError("train_gan built a tape")

        monkeypatch.setattr(Tape, "__init__", no_tape)
        cfg = GanConfig(latent_dim=2, batch_size=16, epochs=2, hidden=(8, 6), n_diag_samples=8)
        train_gan(tiny_dataset(), cfg)

    def test_monitor_forms_no_physical_rows(self, monkeypatch):
        def no_rows(self, z):
            raise AssertionError("train_gan pushed rows to physical units")

        monkeypatch.setattr(Generator, "push_batch", no_rows)
        cfg = GanConfig(latent_dim=2, batch_size=16, epochs=2, hidden=(8, 6), n_diag_samples=8)
        train_gan(tiny_dataset(), cfg)

    @pytest.mark.parametrize("kind", ["tanh_head", "z_scored"])
    def test_push_batch_matches_blockwise_denormalisation(self, kind):
        rng = np.random.default_rng(2)
        gen = tiny_generator(kind, rng)
        norm = gen.norm
        z = rng.standard_normal((20, 3))
        rows = gen.raw_batch(z)
        want = np.concatenate(
            [norm.denormalize_state(rows[:, :4]), norm.denormalize_params(rows[:, 4:])], axis=1
        )
        np.testing.assert_array_equal(gen.push_batch(z), want)


@pytest.mark.parametrize(
    "kind", ["tanh_head", "z_scored", "two_hidden", "tiny_scale"]
)
def test_closed_form_moments_match_the_normalised_rows(kind):
    rng = np.random.default_rng(6)
    gen = tiny_generator(kind, rng)
    for b in gen.params.biases:
        b += rng.normal(size=b.shape)
    z = rng.standard_normal((500, 3))
    raw = gen.raw_batch(z)
    scale = np.concatenate([gen.norm.state_scale, gen.norm.param_scale])
    shift = np.concatenate([gen.norm.state_shift, gen.norm.param_shift])
    mean, std = gen.moments(z)
    np.testing.assert_allclose(std / scale, raw.std(axis=0), rtol=0.0, atol=1e-12)
    # the mean carries the rounding of adding the shift, and nothing more
    np.testing.assert_array_less(np.abs((mean - shift) / scale - raw.mean(axis=0)),
                                 1e-12 + np.spacing(np.abs(shift)) / scale)
    if kind == "tiny_scale":
        rows_std = gen.push_batch(z).std(axis=0)[1] / scale[1]
        assert abs(rows_std - raw[:, 1].std()) > 1e-3


def test_posterior_stats_std_matches_the_normalised_rows():
    # the 5e6-shift, 1e-9-scale column: a std of physical rows reads its roundoff
    rng = np.random.default_rng(6)
    gen = tiny_generator("tiny_scale", rng)
    z = rng.standard_normal((250, 3))
    stats = posterior_stats(z, gen)
    want = gen.raw_batch(z)[:, :4].std(axis=0)
    np.testing.assert_allclose(stats.q_std / gen.norm.state_scale, want, rtol=0.0, atol=1e-12)


def test_zero_width_parameter_block_rejected(tmp_path):
    # every generated row carries a parameter block, in memory and in a file
    rng = np.random.default_rng(5)
    gen = tiny_generator("z_scored", rng)
    state_only = replace(gen.norm, param_shift=np.zeros(0), param_scale=np.ones(0))
    with pytest.raises(ValueError, match="n_param is 0"):
        Generator(init_params(MlpSpec((3, 8, 4)), rng), 4, 0, state_only)
    path = tmp_path / "g.bin"
    save_generator(path, gen)
    header, blobs = read_checkpoint(path, "generator")
    header["n_param"] = 0
    header["spec"]["widths"][-1] = 4
    blobs.update(param_shift=np.zeros(0), param_scale=np.ones(0),
                 w001=blobs["w001"][:, :4], b001=blobs["b001"][:4])
    write_checkpoint(path, header, blobs)
    with pytest.raises(ValueError, match="n_param is 0"):
        load_generator(path)


def test_exploding_learning_rate_raises_training_diverged():
    cfg = GanConfig(latent_dim=2, batch_size=16, lr=1e100, epochs=3, hidden=(8,), n_diag_samples=8)
    with pytest.raises(TrainingDiverged) as err, np.errstate(over="ignore", invalid="ignore"):
        train_gan(tiny_dataset(), cfg)
    assert err.value.epoch == 0
    assert isinstance(err.value.__cause__, NonFiniteError)
