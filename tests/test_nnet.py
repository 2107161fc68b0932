import json
import re
import struct

import numpy as np
import pytest

from mcgan.autodiff import Tape
from mcgan.data import Dataset, load_dataset, save_dataset
from mcgan.gan import Generator, load_generator, save_generator
from mcgan.nnet import (
    MlpParams,
    MlpSpec,
    RmspropState,
    init_params,
    mlp_apply,
    mlp_forward,
    read_checkpoint,
    rmsprop_step,
    write_checkpoint,
)


class TestSpecValidation:
    def test_needs_two_widths(self):
        with pytest.raises(ValueError):
            MlpSpec((4,))

    def test_positive_widths(self):
        with pytest.raises(ValueError):
            MlpSpec((4, 0, 2))


class TestForward:
    def test_zero_weights_give_activated_bias(self):
        # the hidden layer sees only its bias; an identity output layer passes it on
        spec = MlpSpec((3, 2, 2))
        b = np.array([0.5, -1.0])
        params = MlpParams(spec, [np.zeros((3, 2)), np.eye(2)], [b.copy(), np.zeros(2)])
        tape = Tape()
        x = np.array([9.0, -3.0, 1.0])
        np.testing.assert_array_equal(mlp_forward(params, tape.const(x)).value, [0.5, -0.2])
        np.testing.assert_array_equal(mlp_apply(params, x), [0.5, -0.2])

    def test_identity_network(self):
        spec = MlpSpec((4, 4))
        params = MlpParams(spec, [np.eye(4)], [np.zeros(4)])
        x = np.array([1.0, -2.0, 3.0, 0.25])
        tape = Tape()
        out = mlp_forward(params, tape.const(x))
        np.testing.assert_allclose(out.value, x)

    def test_batched_rows_match_unbatched(self):
        rng = np.random.default_rng(0)
        spec = MlpSpec((3, 5, 2))
        params = init_params(spec, rng)
        xb = rng.normal(size=(6, 3))
        tape = Tape()
        batched = mlp_forward(params, tape.const(xb)).value
        for i in range(6):
            t = Tape()
            row = mlp_forward(params, t.const(xb[i])).value
            np.testing.assert_allclose(batched[i], row, rtol=1e-13, atol=1e-15)

    def test_width_mismatch_rejected(self):
        params = init_params(MlpSpec((3, 2)), np.random.default_rng(0))
        tape = Tape()
        with pytest.raises(ValueError):
            mlp_forward(params, tape.const(np.zeros(4)))

    def test_tape_free_apply_matches_tape(self):
        rng = np.random.default_rng(1)
        spec = MlpSpec((4, 6, 3))
        params = init_params(spec, rng)
        x = rng.normal(size=(5, 4))
        tape = Tape()
        np.testing.assert_array_equal(
            mlp_apply(params, x), mlp_forward(params, tape.const(x)).value
        )


class TestRmsprop:
    def test_zero_gradient_is_noop(self):
        params = init_params(MlpSpec((2, 2)), np.random.default_rng(3))
        before = params.copy()
        state = RmspropState.for_params(params, lr=1e-3)
        rmsprop_step(state, params, [np.zeros_like(t) for t in params.tensors()])
        for a, b in zip(params.tensors(), before.tensors()):
            np.testing.assert_array_equal(a, b)

    def test_hand_evaluated_scalar_update(self):
        spec = MlpSpec((1, 1))
        params = MlpParams(spec, [np.array([[1.0]])], [np.zeros(1)])
        state = RmspropState.for_params(params, lr=1e-4)
        grads = [np.array([[1.0]]), np.zeros(1)]
        rmsprop_step(state, params, grads)
        assert state.accum[0][0, 0] == pytest.approx(0.01)
        assert params.weights[0][0, 0] == pytest.approx(1.0 - 1e-4 * 1.0 / (0.1 + 1e-8))

    def test_second_identical_step_is_smaller(self):
        spec = MlpSpec((1, 1))
        params = MlpParams(spec, [np.array([[0.0]])], [np.zeros(1)])
        state = RmspropState.for_params(params, lr=1e-2)
        g = [np.array([[1.0]]), np.zeros(1)]
        rmsprop_step(state, params, g)
        step1 = abs(params.weights[0][0, 0])
        prev = params.weights[0][0, 0]
        rmsprop_step(state, params, g)
        step2 = abs(params.weights[0][0, 0] - prev)
        assert step2 < step1

    def test_first_step_direction_is_sign_of_gradient(self):
        rng = np.random.default_rng(5)
        spec = MlpSpec((3, 3))
        params = MlpParams(spec, [np.zeros((3, 3))], [np.zeros(3)])
        state = RmspropState.for_params(params, lr=1.0)
        g = rng.normal(size=(3, 3))
        rmsprop_step(state, params, [g, np.zeros(3)])
        # with v starting at 0, step ~ -lr * g / (0.1 |g| + eps): direction -sign(g)
        assert np.all(np.sign(params.weights[0]) == -np.sign(g))

    def test_nan_gradient_rejected(self):
        params = init_params(MlpSpec((1, 1)), np.random.default_rng(0))
        state = RmspropState.for_params(params, lr=1e-3)
        bad = [np.array([[np.nan]]), np.zeros(1)]
        with pytest.raises(Exception):
            rmsprop_step(state, params, bad)


class TestInit:
    def test_scalar_layer_bound(self):
        for seed in range(20):
            params = init_params(MlpSpec((1, 1)), np.random.default_rng(seed))
            assert abs(params.weights[0][0, 0]) <= np.sqrt(3.0)

    def test_seed_determinism(self):
        a = init_params(MlpSpec((4, 8, 2)), np.random.default_rng(42))
        b = init_params(MlpSpec((4, 8, 2)), np.random.default_rng(42))
        for x, y in zip(a.tensors(), b.tensors()):
            np.testing.assert_array_equal(x, y)

    def test_large_layer_variance(self):
        params = init_params(MlpSpec((1000, 1000)), np.random.default_rng(9))
        var = params.weights[0].var()
        expected = 2.0 / (1000 + 1000)
        assert abs(var - expected) / expected < 0.10

    def test_biases_zero(self):
        params = init_params(MlpSpec((3, 5, 2)), np.random.default_rng(1))
        for b in params.biases:
            assert np.all(b == 0)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        ds = Dataset.from_raw("d", rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))
        gen = Generator(init_params(MlpSpec((3, 4, 4)), rng), 2, 2, ds.norm, {"note": "unit"})
        path = tmp_path / "gen.mcgw"
        save_generator(path, gen)
        loaded = load_generator(path)
        assert loaded.meta == {"note": "unit"}
        assert loaded.params.spec == gen.params.spec
        for a, b in zip(loaded.params.tensors(), gen.params.tensors()):
            np.testing.assert_array_equal(a, b)
        # write the loaded copy back: file bytes identical
        path2 = tmp_path / "gen2.mcgw"
        save_generator(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_generator(p)


def write_dataset(path):
    rng = np.random.default_rng(0)
    save_dataset(path, Dataset.from_raw("d", rng.normal(size=(4, 3)), rng.normal(size=(4, 2))))
    return load_dataset


def write_generator(path):
    rng = np.random.default_rng(2)
    ds = Dataset.from_raw("d", rng.normal(size=(4, 3)), rng.normal(size=(4, 2)))
    save_generator(path, Generator(init_params(MlpSpec((2, 4, 5)), rng), 3, 2, ds.norm))
    return load_generator


PREFIX = struct.Struct("<4sII")  # magic, version, header length


def with_header(raw, edit):
    """The container raw with its JSON header bytes replaced by edit(header bytes)."""
    magic, version, hlen = PREFIX.unpack_from(raw)
    head = edit(raw[PREFIX.size : PREFIX.size + hlen])
    return PREFIX.pack(magic, version, len(head)) + head + raw[PREFIX.size + hlen :]


def first_extent(value):
    """A header edit that sets the first blob's first extent to value."""

    def edit(head):
        header = json.loads(head)
        header["blobs"][min(header["blobs"])][0] = value
        return json.dumps(header).encode("utf-8")

    return edit


# name -> (damage to the file's bytes, the cause the error must name beside the path)
DAMAGE = {
    "six_bytes": (lambda raw: raw[:6], "too short"),
    "cut_blob": (lambda raw: raw[:-4], "cut short"),
    "padded": (lambda raw: raw + b"\0" * 8, "after the last blob"),
    "version": (lambda raw: raw[:4] + struct.pack("<I", 2) + raw[8:], "unsupported checkpoint version 2"),
    "header_past_end": (
        lambda raw: raw[:8] + struct.pack("<I", len(raw)) + raw[12:], "header runs past the end"
    ),
    "negative_extent": (lambda raw: with_header(raw, first_extent(-1)), "malformed checkpoint header"),
    "fractional_extent": (lambda raw: with_header(raw, first_extent(1.5)), "malformed checkpoint header"),
    "header_not_json": (lambda raw: with_header(raw, lambda head: head[:-1]), "malformed checkpoint header"),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("write", [write_dataset, write_generator])
def test_damaged_container_rejected(tmp_path, write, damage):
    path = tmp_path / "file.bin"
    load = write(path)
    load(path)
    corrupt, cause = DAMAGE[damage]
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + cause):
        load(path)


@pytest.mark.parametrize("key", ["hidden_activation", "output_activation"])
@pytest.mark.parametrize("write, kind", [(write_generator, "generator")])
def test_tanh_network_file_rejected(tmp_path, write, kind, key):
    # a file from a network of another shape must not load as leaky-ReLU
    path = tmp_path / "file.bin"
    load = write(path)
    header, blobs = read_checkpoint(path, kind)
    assert header["spec"][key] in ("leaky_relu", "identity")
    header["spec"][key] = "tanh"
    write_checkpoint(path, header, blobs)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load(path)


MISSING = [
    *(("dataset", "header", k) for k in ("problem", "n_state", "n_param", "param_tanh")),
    *(("dataset", "blob", k) for k in ("rows", "param_shift", "param_scale")),
    *(("generator", "header", k) for k in ("n_state", "n_param", "param_tanh", "spec")),
    ("generator", "spec", "widths"),
    *(("generator", "blob", k) for k in ("param_shift", "param_scale", "w000", "b000", "b001")),
]


@pytest.mark.parametrize("kind, part, key", MISSING, ids=["-".join(m) for m in MISSING])
def test_missing_key_named_with_the_path(tmp_path, kind, part, key):
    # a well-formed container that lacks a field the loader reads
    path = tmp_path / "file.bin"
    load = (write_dataset if kind == "dataset" else write_generator)(path)
    header, blobs = read_checkpoint(path, kind)
    del {"header": header, "blob": blobs, "spec": header.get("spec")}[part][key]
    write_checkpoint(path, header, blobs)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + repr(key)):
        load(path)


def test_spec_that_is_not_a_table_rejected(tmp_path):
    path = tmp_path / "file.bin"
    load = write_generator(path)
    header, blobs = read_checkpoint(path, "generator")
    header["spec"] = "leaky_relu"
    write_checkpoint(path, header, blobs)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*not a table"):
        load(path)
