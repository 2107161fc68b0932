"""Reverse-mode automatic differentiation over dense float64 tensors.

A :class:`Tape` records a computation as an append-only list of nodes; parent
indices always precede child indices, so a single reverse sweep in index order
is a valid topological traversal.  The op set is deliberately small: what the
test oracles and the benchmark's gradient-penalty probe need.  WGAN-GP training
and the latent posterior build no tape; their tests check them against it.

Second-order support: :func:`grad_wrt_input` appends the gradient of a scalar
node with respect to an input leaf as a *new differentiable node*, so a
gradient-norm penalty can re-enter a loss.  When :func:`backward` later meets
such a node it propagates through it with a forward-over-reverse sweep: the
incoming cotangent is injected as a tangent at the differentiated input and
carried through a replay of both the forward pass and the reverse pass in
dual-number arithmetic.  One tangent sweep per penalty, and exact (dual
arithmetic carries no truncation error).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "DualTensor",
    "Node",
    "Tape",
    "NonFiniteError",
    "as_tensor",
    "backward",
    "grad_wrt_input",
    "second_order_grad",
    "concat",
    "leaky_relu",
]

# Dense tensors are plain float64 ndarrays, row-major.
Tensor = np.ndarray

LEAKY_SLOPE = 0.2


class NonFiniteError(RuntimeError):
    """A tensor picked up a NaN or Inf where the engine requires finiteness."""


def as_tensor(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array and reject non-finite entries.

    Zero-dimensional inputs stay zero-dimensional (ascontiguousarray would
    promote them to one element vectors).
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("non-finite entries in tensor")
    return arr


# ---------------------------------------------------------------------------
# Dual numbers (primal + tangent), the carrier for forward-over-reverse.
# ---------------------------------------------------------------------------


@dataclass
class DualTensor:
    """A primal value paired with a directional derivative of equal shape."""

    # make ndarray <op> DualTensor defer to the reflected operators below
    __array_ufunc__ = None

    primal: np.ndarray
    tangent: np.ndarray

    def __post_init__(self):
        self.primal = np.asarray(self.primal, dtype=np.float64)
        self.tangent = np.asarray(self.tangent, dtype=np.float64)
        if self.primal.shape != self.tangent.shape:
            raise ValueError(
                f"primal shape {self.primal.shape} != tangent shape {self.tangent.shape}"
            )

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        p, t = _parts(other)
        return DualTensor(self.primal + p, self.tangent + t)

    __radd__ = __add__

    def __sub__(self, other):
        p, t = _parts(other)
        return DualTensor(self.primal - p, self.tangent - t)

    def __rsub__(self, other):
        p, t = _parts(other)
        return DualTensor(p - self.primal, t - self.tangent)

    def __mul__(self, other):
        p, t = _parts(other)
        return DualTensor(self.primal * p, self.tangent * p + self.primal * t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p, t = _parts(other)
        inv = 1.0 / p
        return DualTensor(
            self.primal * inv, self.tangent * inv - self.primal * t * inv * inv
        )

    def __rtruediv__(self, other):
        p, t = _parts(other)
        inv = 1.0 / self.primal
        return DualTensor(p * inv, t * inv - p * self.tangent * inv * inv)

    def __matmul__(self, other):
        p, t = _parts(other)
        return DualTensor(
            self.primal @ p, self.tangent @ p + self.primal @ t
        )

    def __rmatmul__(self, other):
        p, t = _parts(other)
        return DualTensor(p @ self.primal, t @ self.primal + p @ self.tangent)

    def __neg__(self):
        return DualTensor(-self.primal, -self.tangent)

    def __getitem__(self, key):
        return DualTensor(self.primal[key], self.tangent[key])

    # -- structure ----------------------------------------------------------
    @property
    def shape(self):
        return self.primal.shape

    @property
    def T(self):
        return DualTensor(self.primal.T, self.tangent.T)

    def reshape(self, *shape):
        return DualTensor(self.primal.reshape(*shape), self.tangent.reshape(*shape))

    def sum(self, axis=None, keepdims=False):
        return DualTensor(
            np.sum(self.primal, axis=axis, keepdims=keepdims),
            np.sum(self.tangent, axis=axis, keepdims=keepdims),
        )


def _parts(x):
    """Split a DualTensor or plain array-like into (primal, tangent)."""
    if isinstance(x, DualTensor):
        return x.primal, x.tangent
    x = np.asarray(x, dtype=np.float64)
    return x, np.zeros_like(x)


def _primal(x):
    return x.primal if isinstance(x, DualTensor) else x


def _shape(x):
    return _primal(x).shape


# Elementwise primitives written once, usable on arrays and DualTensors.


def _tanh(x):
    if isinstance(x, DualTensor):
        y = np.tanh(x.primal)
        return DualTensor(y, (1.0 - y * y) * x.tangent)
    return np.tanh(x)


def _sqrt(x):
    if isinstance(x, DualTensor):
        y = np.sqrt(x.primal)
        return DualTensor(y, 0.5 * x.tangent / y)
    return np.sqrt(x)


def _leaky_mask(x):
    """Slope of the leaky ReLU at x; the subgradient at 0 is the positive side's."""
    return np.where(_primal(x) >= 0.0, 1.0, LEAKY_SLOPE)


def leaky_relu(x):
    """max(x, LEAKY_SLOPE x) on arrays and DualTensors alike."""
    return x * _leaky_mask(x)


def _sum(x, axis=None, keepdims=False):
    if isinstance(x, DualTensor):
        return x.sum(axis=axis, keepdims=keepdims)
    return np.sum(x, axis=axis, keepdims=keepdims)


def _outer(a, b):
    """Outer product of two vectors, dual-aware."""
    return _reshape(a, (-1, 1)) * _reshape(b, (1, -1))


def _reshape(x, shape):
    if isinstance(x, DualTensor):
        return x.reshape(shape)
    return np.reshape(x, shape)


def _unbroadcast(g, shape):
    """Reduce a cotangent back onto an operand shape after numpy broadcasting."""
    gshape = _shape(g)
    if gshape == tuple(shape):
        return g
    # sum away prepended axes
    while len(_shape(g)) > len(shape):
        g = _sum(g, axis=0)
    # sum over axes that were broadcast from 1
    for ax, n in enumerate(shape):
        if n == 1 and _shape(g)[ax] != 1:
            g = _sum(g, axis=ax, keepdims=True)
    return g


def _placed(shape, key, src):
    """Adjoint of a slice: src written at key into a zero array of the given shape."""
    if isinstance(src, DualTensor):
        return DualTensor(_placed(shape, key, src.primal), _placed(shape, key, src.tangent))
    out = np.zeros(shape)
    out[key] = src
    return out


# ---------------------------------------------------------------------------
# Tape and nodes
# ---------------------------------------------------------------------------


@dataclass
class _Record:
    kind: str
    parents: tuple
    value: np.ndarray
    aux: Any = None


class Node:
    """Handle to a tape entry.  Supports the op set via operators/methods."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> np.ndarray:
        return self.tape.records[self.idx].value

    @property
    def shape(self):
        return self.value.shape

    # arithmetic sugar: Node (+,*,@) Node, and scalar scaling / shifting
    def __add__(self, other):
        if isinstance(other, Node):
            return self.tape.apply("add", self, other)
        return self.tape.apply("add", self, self.tape.const(other))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Node):
            other = self.tape.const(other)
        return self + other.scale(-1.0)

    def __rsub__(self, other):
        return self.scale(-1.0) + other

    def __mul__(self, other):
        if isinstance(other, Node):
            return self.tape.apply("mul", self, other)
        return self.scale(float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self.scale(-1.0)

    def __matmul__(self, other):
        return self.tape.apply("matmul", self, other)

    def scale(self, alpha: float):
        return self.tape.apply("scale", self, aux=float(alpha))

    def sum(self):
        return self.tape.apply("sum", self)

    def mean(self):
        return self.tape.apply("mean", self)

    def tanh(self):
        return self.tape.apply("tanh", self)

    def leaky_relu(self):
        return self.tape.apply("leaky_relu", self)

    def square(self):
        return self.tape.apply("square", self)

    def l2norm(self, axis=None):
        if axis not in (None, 1):
            raise ValueError("l2norm supports axis None (full) or 1 (per row)")
        return self.tape.apply("l2norm", self, aux=axis)

    def slice(self, start: int, stop: int):
        n = self.value.shape[-1]
        if not (0 <= start <= stop <= n):
            raise IndexError(f"slice [{start}:{stop}] out of range for width {n}")
        return self.tape.apply("slice", self, aux=(start, stop))


def concat(nodes: Sequence[Node]) -> Node:
    """Concatenate nodes along the last axis."""
    if not nodes:
        raise ValueError("concat of no nodes")
    return nodes[0].tape.apply("concat", *nodes)


# forward rules ------------------------------------------------------------


def _forward(kind: str, vals: list, aux) -> Any:
    if kind == "add":
        return vals[0] + vals[1]
    if kind == "mul":
        return vals[0] * vals[1]
    if kind == "matmul":
        return vals[0] @ vals[1]
    if kind == "scale":
        return vals[0] * aux
    if kind == "sum":
        return _sum(vals[0])
    if kind == "mean":
        return _sum(vals[0]) * (1.0 / _primal(vals[0]).size)
    if kind == "tanh":
        return _tanh(vals[0])
    if kind == "leaky_relu":
        return leaky_relu(vals[0])
    if kind == "square":
        return vals[0] * vals[0]
    if kind == "l2norm":
        sq = _sum(vals[0] * vals[0], axis=aux)
        return _sqrt(sq)
    if kind == "slice":
        return vals[0][..., slice(*aux)]
    if kind == "concat":
        if any(isinstance(v, DualTensor) for v in vals):
            ps = [_parts(v)[0] for v in vals]
            ts = [_parts(v)[1] for v in vals]
            return DualTensor(
                np.concatenate(ps, axis=-1), np.concatenate(ts, axis=-1)
            )
        return np.concatenate(vals, axis=-1)
    raise ValueError(f"unknown op kind {kind!r}")


def _vjp(kind: str, vals: list, out, cot, aux) -> list:
    """Cotangents for each parent; written dual-aware for the tangent sweep."""
    if kind == "add":
        return [
            _unbroadcast(cot, _shape(vals[0])),
            _unbroadcast(cot, _shape(vals[1])),
        ]
    if kind == "mul":
        return [
            _unbroadcast(cot * vals[1], _shape(vals[0])),
            _unbroadcast(cot * vals[0], _shape(vals[1])),
        ]
    if kind == "matmul":
        a, b = vals
        na, nb = len(_shape(a)), len(_shape(b))
        if na == 2 and nb == 2:
            return [cot @ b.T, a.T @ cot]
        if na == 1 and nb == 2:
            return [b @ cot, _outer(a, cot)]
        if na == 2 and nb == 1:
            return [_outer(cot, b), a.T @ cot]
        # vector . vector -> scalar
        return [cot * b, cot * a]
    if kind == "scale":
        return [cot * aux]
    if kind == "sum":
        return [cot * np.ones(_shape(vals[0]))]
    if kind == "mean":
        return [cot * np.full(_shape(vals[0]), 1.0 / _primal(vals[0]).size)]
    if kind == "tanh":
        return [cot * (1.0 - out * out)]
    if kind == "leaky_relu":
        return [cot * _leaky_mask(vals[0])]
    if kind == "square":
        return [cot * vals[0] * 2.0]
    if kind == "l2norm":
        # safe at ||x|| = 0: numerator is 0 there, tiny shift avoids 0/0
        denom = out + 1e-300
        if aux is None:
            return [vals[0] * (cot / denom)]
        return [vals[0] * _reshape(cot / denom, (-1, 1))]
    if kind == "slice":
        return [_placed(_shape(vals[0]), (..., slice(*aux)), cot)]
    if kind == "concat":
        outs = []
        off = 0
        for v in vals:
            w = _shape(v)[-1]
            outs.append(cot[..., off : off + w])
            off += w
        return outs
    raise ValueError(f"unknown op kind {kind!r}")


class Tape:
    """Append-only computation record.  Single-threaded; parents precede children."""

    def __init__(self):
        self.records: list[_Record] = []
        self.grad_ids: set[int] = set()

    def __len__(self):
        return len(self.records)

    # -- construction --------------------------------------------------------
    def leaf(self, value, grad: bool = True) -> Node:
        value = as_tensor(value)
        self.records.append(_Record("leaf", (), value))
        idx = len(self.records) - 1
        if grad:
            self.grad_ids.add(idx)
        return Node(self, idx)

    def const(self, value) -> Node:
        return self.leaf(value, grad=False)

    def apply(self, kind: str, *parents: Node, aux=None) -> Node:
        for p in parents:
            if p.tape is not self:
                raise ValueError("all operands must live on the same tape")
        vals = [p.value for p in parents]
        with np.errstate(all="ignore"):
            out = _forward(kind, vals, aux)
        if not np.all(np.isfinite(out)):
            raise NonFiniteError(f"op {kind!r} produced non-finite values")
        self.records.append(
            _Record(kind, tuple(p.idx for p in parents), np.asarray(out), aux)
        )
        return Node(self, len(self.records) - 1)

    # -- verification --------------------------------------------------------
    def replay(self) -> list[np.ndarray]:
        """Recompute every cached value from the leaves, in recording order."""
        values: list[np.ndarray] = []
        for rec in self.records:
            if rec.kind == "leaf":
                values.append(rec.value)
            elif rec.kind == "grad_of":
                out_id, x_id = rec.parents
                adj = _reverse_sweep(self, out_id, values)
                values.append(
                    np.asarray(adj.get(x_id, np.zeros(values[x_id].shape)))
                )
            else:
                values.append(
                    np.asarray(
                        _forward(rec.kind, [values[p] for p in rec.parents], rec.aux)
                    )
                )
        return values


# ---------------------------------------------------------------------------
# Reverse sweeps
# ---------------------------------------------------------------------------


def _reverse_sweep(tape: Tape, out_id: int, values=None) -> dict[int, Any]:
    """Adjoint sweep from a scalar node, in reverse recording order.

    `values` overrides the recorded values (a replay, or the dual-number replay
    of the tangent sweep).  A gradient node is differentiated through by the
    tangent sweep, which rejects a gradient node nested inside its own prefix.
    """
    vals = values if values is not None else [r.value for r in tape.records]
    adj: dict[int, Any] = {out_id: np.ones(())}
    for i in range(out_id, -1, -1):
        if i not in adj:
            continue
        rec = tape.records[i]
        if rec.kind == "leaf":
            continue
        if rec.kind == "grad_of":
            cots = _tangent_leaf_grads(tape, *rec.parents, adj[i]).items()
        else:
            parent_vals = [vals[p] for p in rec.parents]
            cots = zip(rec.parents, _vjp(rec.kind, parent_vals, vals[i], adj[i], rec.aux))
        for p, c in cots:
            adj[p] = c if p not in adj else adj[p] + c
    return adj


def _tangent_leaf_grads(
    tape: Tape, out_id: int, x_id: int, seed: np.ndarray
) -> dict[int, np.ndarray]:
    """Forward-over-reverse: inject `seed` as a tangent at leaf x_id, replay the
    prefix tape and its reverse sweep in dual arithmetic, and return the tangent
    component of every leaf adjoint.  Those tangents equal the gradients of
    seed . grad_x(output) with respect to each leaf."""
    vals: list[Any] = []
    for i in range(out_id + 1):
        rec = tape.records[i]
        if rec.kind == "leaf":
            if i == x_id:
                vals.append(DualTensor(rec.value, np.asarray(seed, dtype=np.float64)))
            else:
                vals.append(rec.value)
        elif rec.kind == "grad_of":
            raise ValueError("nested gradient nodes are not supported")
        else:
            vals.append(_forward(rec.kind, [vals[p] for p in rec.parents], rec.aux))
    adj = _reverse_sweep(tape, out_id, vals)
    return {
        i: a.tangent
        for i, a in adj.items()
        if tape.records[i].kind == "leaf" and isinstance(a, DualTensor)
    }


def _require_scalar(output: Node):
    if output.value.shape != ():
        raise ValueError("backward requires a scalar output node")


def backward(output: Node, wrt: Iterable[Node] | None = None) -> dict[int, np.ndarray]:
    """Gradients of a scalar node with respect to the tape's marked leaves.

    Returns a map from leaf index to gradient tensor.  Leaves that the output
    does not depend on get zero gradients.  Tapes containing a gradient node
    (from :func:`grad_wrt_input`) are handled by the tangent sweep, which is
    where the second-order terms of a gradient penalty come from.
    """
    _require_scalar(output)
    tape = output.tape
    want = (
        set(tape.grad_ids)
        if wrt is None
        else {n.idx for n in wrt}
    )
    adj = _reverse_sweep(tape, output.idx)
    grads: dict[int, np.ndarray] = {}
    for lid in want:
        g = adj.get(lid)
        if g is None:
            g = np.zeros(tape.records[lid].value.shape)
        g = np.asarray(_primal(g))
        if not np.all(np.isfinite(g)):
            raise NonFiniteError("NaN encountered during reverse sweep")
        grads[lid] = g
    return grads


def grad_wrt_input(output: Node, x: Node) -> Node:
    """Gradient of a scalar node w.r.t. an input leaf, as a differentiable node.

    The concrete value is computed by an ordinary reverse sweep; downstream ops
    (e.g. a norm feeding a penalty) treat the result like any other tensor, and
    :func:`backward` knows how to differentiate through it.
    """
    _require_scalar(output)
    tape = output.tape
    if x.tape is not tape:
        raise ValueError("input is not on the same tape")
    if tape.records[x.idx].kind != "leaf":
        raise ValueError("grad_wrt_input target must be a leaf")
    adj = _reverse_sweep(tape, output.idx)
    g = adj.get(x.idx)
    if g is None:
        g = np.zeros(x.value.shape)
    g = np.asarray(_primal(g))
    if not np.all(np.isfinite(g)):
        raise NonFiniteError("NaN encountered during reverse sweep")
    tape.records.append(_Record("grad_of", (output.idx, x.idx), g))
    return Node(tape, len(tape.records) - 1)


def second_order_grad(penalty: Node, params: Sequence[Node]) -> dict[int, np.ndarray]:
    """Parameter gradients of a penalty built on top of :func:`grad_wrt_input`.

    Thin validated front end over :func:`backward`: it insists that the penalty
    actually depends on a gradient node, since otherwise there is no second
    order structure and plain backward should be used.
    """
    _require_scalar(penalty)
    tape = penalty.tape
    # reachability check: walk ancestors of the penalty looking for grad_of
    stack = [penalty.idx]
    seen = set()
    found = False
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        rec = tape.records[i]
        if rec.kind == "grad_of":
            found = True
            break
        stack.extend(rec.parents)
    if not found:
        raise ValueError("penalty is not downstream of a grad_wrt_input node")
    return backward(penalty, wrt=params)
