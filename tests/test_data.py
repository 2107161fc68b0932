import numpy as np
import pytest

from mcgan.data import Dataset, load_dataset, save_dataset
from mcgan.nnet import read_checkpoint, write_checkpoint


def assert_same_dataset(a: Dataset, b: Dataset):
    assert (a.problem, a.n_state, a.n_param, a.meta) == (b.problem, b.n_state, b.n_param, b.meta)
    assert a.norm.param_tanh == b.norm.param_tanh
    np.testing.assert_array_equal(a.rows, b.rows)
    for name in ("state_shift", "state_scale", "param_shift", "param_scale"):
        np.testing.assert_array_equal(getattr(a.norm, name), getattr(b.norm, name))


class TestRoundTrip:
    def test_box_parameters_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        states = rng.normal(3.0, 2.0, size=(7, 5))
        params = rng.uniform([100.0, 1e-4], [1900.0, 9e-4], size=(7, 2))
        ds = Dataset.from_raw(
            "pipe", states, params, [100.0, 1e-4], [1900.0, 9e-4],
            meta={"grid": [64, 64], "note": "unit"},
        )
        assert ds.norm.param_tanh
        save_dataset(tmp_path / "d.bin", ds)
        loaded = load_dataset(tmp_path / "d.bin")
        assert_same_dataset(ds, loaded)
        np.testing.assert_array_equal(ds.denormalized(), loaded.denormalized())

    def test_field_parameters_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = Dataset.from_raw("darcy", rng.normal(size=(6, 4)), rng.normal(size=(6, 3)))
        assert not ds.norm.param_tanh
        save_dataset(tmp_path / "d.bin", ds)
        assert_same_dataset(ds, load_dataset(tmp_path / "d.bin"))


class TestValidation:
    def test_parameters_outside_box_rejected(self):
        states = np.ones((2, 3))
        params = np.array([[0.5], [1.5]])
        with pytest.raises(ValueError, match="outside"):
            Dataset.from_raw("box", states, params, [0.0], [1.0])

    def test_row_width_mismatch_rejected(self):
        ds = Dataset.from_raw("darcy", np.ones((3, 4)) + np.arange(4), np.ones((3, 2)))
        with pytest.raises(ValueError, match="row width"):
            Dataset("darcy", ds.rows, ds.n_state + 1, ds.n_param, ds.norm)

    def test_zero_width_parameter_block_rejected(self, tmp_path):
        # every row carries a parameter block, in memory and in a file
        rng = np.random.default_rng(2)
        states = rng.normal(size=(5, 3))
        with pytest.raises(ValueError, match="n_param is 0"):
            Dataset.from_raw("state-only", states, np.zeros((5, 0)))
        path = tmp_path / "d.bin"
        save_dataset(path, Dataset.from_raw("d", states, rng.normal(size=(5, 1))))
        header, blobs = read_checkpoint(path, "dataset")
        header["n_param"] = 0
        blobs.update(param_shift=np.zeros(0), param_scale=np.ones(0), rows=blobs["rows"][:, :3])
        write_checkpoint(path, header, blobs)
        with pytest.raises(ValueError, match="n_param is 0"):
            load_dataset(path)
