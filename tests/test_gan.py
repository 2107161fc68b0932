import numpy as np
import pytest

from mcgan.autodiff import NonFiniteError, Tape, backward
from mcgan.data import Dataset, load_dataset, save_dataset
from mcgan.gan import (
    Generator,
    GanConfig,
    TrainingDiverged,
    _disc_loss_node,
    load_generator,
    save_generator,
    train_gan,
)
from mcgan.nnet import (
    MlpSpec,
    init_params,
    params_on_tape,
    read_checkpoint,
    write_checkpoint,
)


def tiny_dataset() -> Dataset:
    rng = np.random.default_rng(0)
    states = rng.normal(size=(32, 4))
    params = rng.uniform([0.0, -1.0], [2.0, 1.0], size=(32, 2))
    return Dataset.from_raw("box", states, params, [0.0, -1.0], [2.0, 1.0], meta={"n": 32})


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
    ],
)
def test_config_rejects_settings_that_cannot_train(field, value):
    with pytest.raises(ValueError, match=field):
        GanConfig(latent_dim=2, **{field: value})


def test_critic_loss_gradients_match_central_differences():
    rng = np.random.default_rng(0)
    spec = MlpSpec((5, 7, 1))
    params = init_params(spec, rng)
    params.biases[0][:] = rng.uniform(-0.3, 0.3, size=7)
    real = rng.standard_normal((6, 5))
    fake = rng.standard_normal((6, 5))
    eps = rng.uniform(0.0, 1.0, size=6)

    # central differences need every leaky-ReLU unit to stay on one side of its kink
    mix = eps[:, None] * real + (1.0 - eps[:, None]) * fake
    pre = np.concatenate([real, fake, mix]) @ params.weights[0] + params.biases[0]
    assert np.min(np.abs(pre)) > 1e-3

    def loss():
        tape = Tape()
        layers = params_on_tape(params, tape)
        value = _disc_loss_node(tape, spec, layers, real, fake, eps, 5.0)
        return [n for pair in layers for n in pair], value

    nodes, value = loss()
    grads = backward(value, wrt=nodes)
    h = 1e-6
    for t, node in zip(params.tensors(), nodes):
        fd = np.empty_like(t)
        for i in np.ndindex(t.shape):
            orig = t[i]
            t[i] = orig + h
            up = float(loss()[1].value)
            t[i] = orig - h
            down = float(loss()[1].value)
            t[i] = orig
            fd[i] = (up - down) / (2.0 * h)
        np.testing.assert_allclose(grads[node.idx], fd, rtol=0.0, atol=1e-8)
    assert np.all(grads[nodes[-1].idx] == 0.0)


def test_exploding_learning_rate_raises_training_diverged():
    cfg = GanConfig(latent_dim=2, batch_size=16, lr=1e100, epochs=3, hidden=(8,), n_diag_samples=8)
    with pytest.raises(TrainingDiverged) as err, np.errstate(over="ignore", invalid="ignore"):
        train_gan(tiny_dataset(), cfg)
    assert err.value.epoch == 0
    assert isinstance(err.value.__cause__, NonFiniteError)
