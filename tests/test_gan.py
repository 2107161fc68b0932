import numpy as np
import pytest

from mcgan.data import Dataset, load_dataset, save_dataset
from mcgan.gan import Generator, GanConfig, load_generator, save_generator, train_gan
from mcgan.nnet import MlpSpec, init_params, read_checkpoint, write_checkpoint


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
