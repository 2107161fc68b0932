"""Dense networks on arrays and on the autodiff tape, the RMSProp optimizer,
and the checkpoint container that generators and datasets share.

Every network is one shape: leaky-ReLU hidden layers and an identity output.
On arrays there is one hidden-layer pass and one reverse sweep; inference,
the closed-form moments and both training steps share them.  The tape
helpers build the same network for the test oracles and the bench's probe.

Desk-scale stand-in for the convolutional architectures used at full scale:
state fields are flattened to vectors, so plain MLPs suffice.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Node, NonFiniteError, Tape, _leaky_mask

RMSPROP_DECAY = 0.99
RMSPROP_EPS = 1e-8


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths of a leaky-ReLU network with an identity output."""

    widths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2:
            raise ValueError("an MLP needs at least input and output widths")
        if any(w < 1 for w in self.widths):
            raise ValueError("all layer widths must be >= 1")

    @property
    def in_width(self) -> int:
        return self.widths[0]

    @property
    def out_width(self) -> int:
        return self.widths[-1]


@dataclass
class MlpParams:
    """Weight matrices and bias vectors matching an :class:`MlpSpec`."""

    spec: MlpSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        w = self.spec.widths
        if len(self.weights) != len(w) - 1 or len(self.biases) != len(w) - 1:
            raise ValueError("layer count does not match spec")
        for i, (wm, bv) in enumerate(zip(self.weights, self.biases)):
            if wm.shape != (w[i], w[i + 1]) or bv.shape != (w[i + 1],):
                raise ValueError(f"layer {i} shapes inconsistent with spec")

    def tensors(self) -> list[np.ndarray]:
        out = []
        for wm, bv in zip(self.weights, self.biases):
            out.extend([wm, bv])
        return out

    def copy(self) -> "MlpParams":
        return MlpParams(
            self.spec,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


def init_params(spec: MlpSpec, rng: np.random.Generator) -> MlpParams:
    """Glorot-uniform weights, zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(spec, weights, biases)


def mlp_hidden(layers, x: Node) -> Node:
    """Hidden features on the tape: affine map then leaky ReLU, per (w, b)."""
    h = x
    for w, b in layers:
        h = (h @ w + b).leaky_relu()
    return h


def mlp_hidden_pass(params: MlpParams, x: np.ndarray):
    """Hidden layers on arrays: every layer's input, and every hidden layer's slopes.

    ins[0] is x and ins[-1] the last hidden features; the output layer is left
    to the caller, which may need only some of its columns, or none.
    """
    ins, slopes = [x], []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        pre = ins[-1] @ w + b
        slopes.append(_leaky_mask(pre))
        pre *= slopes[-1]  # in place: one fewer array per layer to allocate
        ins.append(pre)
    return ins, slopes


def mlp_cotangents(weights, slopes, cot: np.ndarray) -> list[np.ndarray]:
    """Cotangent at each layer's pre-activation, first layer first, from the output's.

    Per layer, in reverse, the cotangent becomes (cot @ w.T) * slope, as the
    tape's adjoints compute it, so the bits match the tape's.  weights may end
    in a column-sliced output layer; cots[0] @ weights[0].T is the input's.
    """
    cots = [cot]
    for w, slope in zip(weights[:0:-1], slopes[::-1]):
        cots.append((cots[-1] @ w.T) * slope)
    return cots[::-1]


def mlp_forward(params: MlpParams, x: Node) -> Node:
    """Forward pass on the input's tape, parameters as constants; (n,) or (batch, n)."""
    if x.value.shape[-1] != params.spec.in_width:
        raise ValueError(
            f"input width {x.value.shape[-1]} != spec width {params.spec.in_width}"
        )
    nodes = [
        (x.tape.const(w), x.tape.const(b))
        for w, b in zip(params.weights, params.biases)
    ]
    return mlp_forward_nodes(params.spec, nodes, x)


def params_on_tape(params: MlpParams, tape: Tape) -> list[tuple[Node, Node]]:
    """Register each weight matrix and bias vector as a differentiable leaf."""
    return [
        (tape.leaf(w), tape.leaf(b))
        for w, b in zip(params.weights, params.biases)
    ]


def mlp_forward_nodes(
    spec: MlpSpec, layer_nodes: list[tuple[Node, Node]], x: Node
) -> Node:
    """Forward pass with parameters already living on the tape; the layer
    nodes carry the shape that spec names."""
    *hidden, (w, b) = layer_nodes
    return mlp_hidden(hidden, x) @ w + b


def mlp_apply(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Tape-free forward pass for sampling loops where gradients are not needed."""
    ins, _ = mlp_hidden_pass(params, np.asarray(x, dtype=np.float64))
    return ins[-1] @ params.weights[-1] + params.biases[-1]


@dataclass
class RmspropState:
    """Running mean-square accumulators, one per parameter tensor."""

    lr: float
    accum: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: MlpParams, lr: float) -> "RmspropState":
        return cls(lr=lr, accum=[np.zeros_like(t) for t in params.tensors()])


def rmsprop_step(state: RmspropState, params: MlpParams, grads: list[np.ndarray]) -> MlpParams:
    """In-place RMSProp update: v <- 0.99 v + 0.01 g^2, p <- p - lr g/(sqrt(v)+eps)."""
    tensors = params.tensors()
    if len(grads) != len(tensors) or len(state.accum) != len(tensors):
        raise ValueError("gradient count does not match parameter count")
    for t, g, v in zip(tensors, grads, state.accum):
        if t.shape != g.shape:
            raise ValueError("gradient shape mismatch")
        if not np.all(np.isfinite(g)):
            raise NonFiniteError("NaN gradient in RMSProp step")
        v *= RMSPROP_DECAY
        v += (1.0 - RMSPROP_DECAY) * g * g
        t -= state.lr * g / (np.sqrt(v) + RMSPROP_EPS)
    return params


# ---------------------------------------------------------------------------
# Checkpoint container: magic "MCGW", version, JSON header, f64 blobs.  One
# format for datasets and generators; the header's "kind" says which.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"MCGW"
# the network's one shape, still written out so that files from a network of
# another shape are refused rather than read as this one
_ACTIVATIONS = {"hidden_activation": "leaky_relu", "output_activation": "identity"}
CHECKPOINT_VERSION = 1
_PREFIX = struct.Struct("<4sII")  # magic, version, header length


class _Fields(dict):
    """A checkpoint's header or blobs: a missing key is a ValueError naming the file."""

    def __init__(self, path, what: str, items=()):
        super().__init__(items)
        self.path, self.what = path, what

    def __missing__(self, key):
        raise ValueError(f"{self.path}: checkpoint has no {self.what} {key!r}")


def write_checkpoint(path, header: dict, blobs: dict[str, np.ndarray]) -> None:
    """Write a container: little-endian f64 blobs, in name order, behind a JSON header."""
    manifest = {
        name: list(np.asarray(arr).shape) for name, arr in blobs.items()
    }
    head = dict(header)
    head["blobs"] = manifest
    payload = json.dumps(head, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(_PREFIX.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(payload)))
    buf.write(payload)
    for name in sorted(blobs):
        arr = np.ascontiguousarray(blobs[name], dtype="<f8")
        buf.write(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def read_checkpoint(path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container whose header names `kind`.

    Rejects a short or foreign prefix, a header or blob cut short, and bytes
    after the last blob, each with a ValueError naming the file.  A later
    lookup of a header key or blob that the file lacks raises one too.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _PREFIX.size:
        raise ValueError(f"{path}: {len(raw)} bytes is too short for a checkpoint")
    magic, version, hlen = _PREFIX.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic)")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    off = _PREFIX.size + hlen
    if off > len(raw):
        raise ValueError(f"{path}: header runs past the end of the file")
    try:
        header = _Fields(path, "header key", json.loads(raw[_PREFIX.size : off].decode("utf-8")))
        manifest = {name: tuple(shape) for name, shape in header["blobs"].items()}
        if any(not isinstance(d, int) or d < 0 for s in manifest.values() for d in s):
            raise ValueError("negative or non-integer blob extent")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header") from exc
    blobs = _Fields(path, "blob")
    for name in sorted(manifest):
        nbytes = 8 * math.prod(manifest[name])
        if off + nbytes > len(raw):
            raise ValueError(f"{path}: blob {name!r} is cut short")
        arr = np.frombuffer(raw[off : off + nbytes], dtype="<f8")
        blobs[name] = arr.reshape(manifest[name]).astype(np.float64)
        off += nbytes
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} bytes after the last blob")
    if header.get("kind") != kind:
        raise ValueError(f"{path}: checkpoint holds {header.get('kind')!r}, not {kind!r}")
    return header, blobs


def write_layers(path, params: MlpParams, header: dict, blobs: dict | None = None) -> None:
    """Write a network's spec and layer blobs, plus the caller's header and blobs."""
    header = dict(header, spec={"widths": list(params.spec.widths), **_ACTIVATIONS})
    blobs = dict(blobs or {})
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        blobs[f"w{i:03d}"] = w
        blobs[f"b{i:03d}"] = b
    write_checkpoint(path, header, blobs)


def read_layers(path, kind: str) -> tuple[MlpParams, dict, dict[str, np.ndarray]]:
    """Read a network written by :func:`write_layers` under the given kind."""
    header, blobs = read_checkpoint(path, kind)
    if not isinstance(header["spec"], dict):
        raise ValueError(f"{path}: spec is {header['spec']!r}, not a table")
    sp = _Fields(path, "spec key", header["spec"])
    for key, want in _ACTIVATIONS.items():
        if sp.get(key) != want:
            raise ValueError(f"{path}: {key} is {sp.get(key)!r}, but every network is"
                             " leaky-ReLU with an identity output")
    spec = MlpSpec(tuple(sp["widths"]))
    nlayers = len(spec.widths) - 1
    params = MlpParams(
        spec,
        [blobs[f"w{i:03d}"] for i in range(nlayers)],
        [blobs[f"b{i:03d}"] for i in range(nlayers)],
    )
    return params, header, blobs
