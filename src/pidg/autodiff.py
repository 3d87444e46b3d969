"""Reverse-mode automatic differentiation over dense float64 tensors.

The graph is recorded on an explicit tape: every operation appends one node in
creation order, and the gradient pass walks the node list in exact reverse
creation order (which is automatically a topological order). Values
live in numpy arrays; an operation on vectors of N particles is a single node,
so the tape stays short even for large scenes.

Everything is float64. Any operation that produces a NaN or Inf while a tape
is active raises ``NonFiniteError`` identifying the offending node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "NonFiniteError",
    "active_tape",
    "constant",
    "parameter",
    "accumulate_grad",
    "record",
    "scatter_add",
]


class NonFiniteError(RuntimeError):
    """A forward value became NaN/Inf; the current step must be aborted."""


_TAPE_STACK: list["Tape"] = []


def active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tape:
    """Append-only record of operations, replayed backwards for gradients.

    Use as a context manager. Gradients accumulate into ``.grad`` of leaf
    tensors (parameters/inputs). An intermediate node's gradient is released
    as soon as its VJP has run: the sweep goes in reverse creation order, so
    nothing adds to it afterwards. The tape can keep recording and be swept
    again. A node is an op's output tensor, or a ``_MultiNode`` for an op
    with several outputs. With ``keep_graph=False`` the tape still checks
    every value but records nothing: its outputs are detached and no
    operation keeps backward state, which suits forward-only work such as
    evaluation.
    """

    def __init__(self, keep_graph: bool = True):
        self.nodes: list[Tensor | _MultiNode] = []
        self.keep_graph = keep_graph

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    def backward(self, out: "Tensor", seed: float = 1.0) -> None:
        """Accumulate d(seed * out)/d(leaf) into every reachable leaf's .grad."""
        if out.data.size != 1:
            raise ValueError("backward root must be a scalar (size-1) tensor")
        if out.grad is None:
            out.grad = np.full_like(out.data, float(seed))
        else:
            out.grad = out.grad + float(seed)
        for node in reversed(self.nodes):
            if isinstance(node, Tensor):
                if node.grad is not None:
                    node._vjp(node.grad)
                    node.grad = None
            else:
                grads = tuple(t.grad for t in node.outputs)
                if any(g is not None for g in grads):
                    node._vjp(grads)
                    for t in node.outputs:
                        t.grad = None

    def grad(self, out: "Tensor", inputs) -> list[np.ndarray]:
        """Gradient of a scalar ``out`` at each leaf tensor in ``inputs``: a
        ``backward`` from fresh ``.grad`` on them. Rejects detached inputs, and
        intermediates, whose gradient the sweep releases."""
        for x in inputs:
            if not x.requires_grad or x._parents:
                raise ValueError("grad() inputs must be leaf tensors that require gradients")
            x.grad = None
        self.backward(out)
        return [x.grad.copy() if x.grad is not None else np.zeros_like(x.data) for x in inputs]


@dataclass(slots=True)
class _MultiNode:
    """The tape entry of an op with several outputs: one VJP over all of them."""

    op: str
    outputs: tuple
    _vjp: object = None


class Tensor:
    """A float64 array plus the bookkeeping needed for the backward sweep."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(op={self.op}, shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __getitem__(self, key):
        return getitem(self, key)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False, op="const")


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, op="param")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, op="const")


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the parent's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution to a tensor, handling broadcast shapes."""
    if not t.requires_grad:
        return
    g = _unbroadcast(np.asarray(g, dtype=np.float64), t.data.shape)
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def record(out_data, parents, vjp, op: str):
    """Create an op output, attach it to the active tape if gradients are needed.

    ``vjp(g)`` must accumulate into the parents via ``accumulate_grad``. This is
    also the entry point for fused custom operations (hash-grid interpolation,
    the rasterizer) whose backward rules are hand-written.

    ``out_data`` may be a tuple of arrays. The op then returns a tuple of
    tensors and is one tape entry: the sweep calls ``vjp`` once with the
    tuple of the outputs' gradients, ``None`` for an output nothing reached.
    """
    tape = active_tape()
    parents = tuple(parents)
    needs = tape is not None and tape.keep_graph and any(p.requires_grad for p in parents)
    if isinstance(out_data, tuple):
        outs = tuple(Tensor(d, requires_grad=needs, op=op) for d in out_data)
        node = _MultiNode(op, outs)
    else:
        node = Tensor(out_data, requires_grad=needs, op=op)
        outs = (node,)
    if tape is not None:
        for out in outs:
            if not np.all(np.isfinite(out.data)):
                raise NonFiniteError(
                    f"non-finite value in op '{op}' (node {len(tape.nodes)}; "
                    f"parents: {[p.op for p in parents]})"
                )
        if needs:
            for out in outs:
                out._parents = parents
            node._vjp = vjp
            tape.nodes.append(node)
    return node if isinstance(node, Tensor) else outs


# -- elementwise ---------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def vjp(g):
        accumulate_grad(a, g)
        accumulate_grad(b, g)

    return record(a.data + b.data, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def vjp(g):
        accumulate_grad(a, g)
        accumulate_grad(b, -g)

    return record(a.data - b.data, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def vjp(g):
        accumulate_grad(a, g * b.data)
        accumulate_grad(b, g * a.data)

    return record(a.data * b.data, (a, b), vjp, "mul")


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def vjp(g):
        accumulate_grad(a, g / b.data)
        accumulate_grad(b, -g * a.data / (b.data * b.data))

    return record(a.data / b.data, (a, b), vjp, "div")


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def vjp(g):
        accumulate_grad(a, -g)

    return record(-a.data, (a,), vjp, "neg")


def pow_const(a, p: float) -> Tensor:
    a = _as_tensor(a)
    p = float(p)

    def vjp(g):
        accumulate_grad(a, g * p * a.data ** (p - 1.0))

    return record(a.data**p, (a,), vjp, "pow")


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.exp(a.data)

    def vjp(g):
        accumulate_grad(a, g * out_data)

    return record(out_data, (a,), vjp, "exp")


def _sigmoid_stable(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out_data = _sigmoid_stable(a.data)

    def vjp(g):
        accumulate_grad(a, g * out_data * (1.0 - out_data))

    return record(out_data, (a,), vjp, "sigmoid")


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0

    def vjp(g):
        accumulate_grad(a, g * mask)

    return record(np.where(mask, a.data, 0.0), (a,), vjp, "relu")


def abs_(a) -> Tensor:
    a = _as_tensor(a)
    sgn = np.sign(a.data)

    def vjp(g):
        accumulate_grad(a, g * sgn)

    return record(np.abs(a.data), (a,), vjp, "abs")


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp with zero gradient outside [lo, hi] (boundary passes)."""
    a = _as_tensor(a)
    mask = (a.data >= lo) & (a.data <= hi)

    def vjp(g):
        accumulate_grad(a, g * mask)

    return record(np.clip(a.data, lo, hi), (a,), vjp, "clip")


def where(mask, a, b) -> Tensor:
    """Elementwise select with a constant boolean mask."""
    a, b = _as_tensor(a), _as_tensor(b)
    mask = np.asarray(mask, dtype=bool)

    def vjp(g):
        accumulate_grad(a, g * mask)
        accumulate_grad(b, g * ~mask)

    return record(np.where(mask, a.data, b.data), (a, b), vjp, "where")


# -- reductions ------------------------------------------------------------


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)

    def vjp(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        accumulate_grad(a, np.broadcast_to(gg, a.data.shape))

    return record(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp, "sum")


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size if axis is None else np.prod([a.data.shape[i] for i in np.atleast_1d(axis)])

    def vjp(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        accumulate_grad(a, np.broadcast_to(gg / n, a.data.shape))

    return record(a.data.mean(axis=axis, keepdims=keepdims), (a,), vjp, "mean")


# -- linear algebra / shape ------------------------------------------------


def matmul(a, b) -> Tensor:
    """Batched matrix product; both operands must be at least 2-D."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul needs operands of at least 2 dimensions, got {a.shape} and {b.shape}")

    def vjp(g):
        accumulate_grad(a, g @ np.swapaxes(b.data, -1, -2))
        accumulate_grad(b, np.swapaxes(a.data, -1, -2) @ g)

    return record(a.data @ b.data, (a, b), vjp, "matmul")


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.data.shape

    def vjp(g):
        accumulate_grad(a, g.reshape(old))

    return record(a.data.reshape(shape), (a,), vjp, "reshape")


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = _as_tensor(a)

    def vjp(g):
        accumulate_grad(a, np.swapaxes(g, ax1, ax2))

    return record(np.swapaxes(a.data, ax1, ax2), (a,), vjp, "swapaxes")


def scatter_add(idx, vals, shape) -> np.ndarray:
    """Zeros of ``shape`` with ``vals`` added at rows ``idx`` along axis 0.

    ``vals`` has shape ``idx.shape + shape[1:]`` and every index lies in
    [0, shape[0]). Contributions to a repeated row are added one at a time,
    starting from zero, in the C order of ``idx``, so the result equals bit
    for bit the sequential loop ``out[idx.flat[i]] += vals_rows[i]``. Each
    trailing column is one ``np.bincount``; it reads fastest when
    ``vals[..., j]`` is contiguous.
    """
    flat = np.asarray(idx, dtype=np.intp).reshape(-1)
    vals = np.asarray(vals, dtype=np.float64)
    out = np.empty(shape)
    for col in np.ndindex(*shape[1:]):
        out[(slice(None), *col)] = np.bincount(flat, weights=vals[(..., *col)].reshape(-1), minlength=shape[0])
    return out


def _is_basic_index(key) -> bool:
    """True when ``key`` selects by ints, slices, ``...`` and ``None`` only
    (numpy's basic indexing: every element is selected at most once)."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, (bool, np.bool_)))
               for k in parts)


def getitem(a, key) -> Tensor:
    a = _as_tensor(a)

    def vjp(g):
        if _is_basic_index(key):
            buf = np.zeros_like(a.data)
            buf[key] += g
        else:
            size = a.data.size
            pos = np.arange(size).reshape(a.data.shape)[key]  # flat source of each element
            buf = scatter_add(pos, g, (size,)).reshape(a.data.shape)
        accumulate_grad(a, buf)

    return record(a.data[key], (a,), vjp, "getitem")


def take_rows(a, idx) -> Tensor:
    """Gather rows along axis 0 with a non-negative integer index array."""
    a = _as_tensor(a)
    idx = np.asarray(idx)

    def vjp(g):
        accumulate_grad(a, scatter_add(idx, g, a.data.shape))

    return record(a.data[idx], (a,), vjp, "take_rows")


def concatenate(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            accumulate_grad(p, g[tuple(sl)])

    return record(np.concatenate([p.data for p in parts], axis=axis), parts, vjp, "concat")


def stack(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]

    def vjp(g):
        for i, p in enumerate(parts):
            accumulate_grad(p, np.take(g, i, axis=axis))

    return record(np.stack([p.data for p in parts], axis=axis), parts, vjp, "stack")
