import numpy as np
import pytest

from mcgan.data import Dataset, save_dataset
from mcgan.gan import GanConfig, load_generator, save_generator, train_gan


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
