"""Minimal dense-array reverse-mode autodiff on float32 or float64 numpy
arrays; every op keeps the dtype of its inputs.

Outside ``inference()``, every operation builds a node graph that
``backward`` replays in reverse topological order exactly once per node,
and a NaN aborts at once with the identity of the producing node.

The ops are the ones the model and the losses use. ``add``, ``mul`` and
``silu`` (whose sigmoid is 1 / (1 + exp(-x)) from numpy's vector ``exp``)
are elementwise, and ``slice_`` backs ``Tensor[...]``. The transformer
blocks run on four fused nodes with closed-form gradients: ``linear``,
``layer_norm``, multi-head ``attention`` and ``depthwise_conv``; the bias
gradient of ``linear``, the softmax row sums of ``attention`` and the
backward sums of ``layer_norm`` are BLAS products with a vector of ones.
``pack`` and ``unpack`` move between a padded ``(B, T, C)`` array and its
``(N, C)`` rows under a boolean ``(B, T)`` mask. A value computed in numpy
with a hand-written gradient is a ``Tensor`` built directly from its data,
parents and gradient function; each loss is one. ``as_tensor`` is the
one coercion of an array or number to a leaf ``Tensor``: every op, loss and
model entry point that accepts either goes through it.
A node adopts the first gradient it receives and sums later ones into a new
array, so gradient arrays may be shared and are read-only.
"""
from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "as_tensor",
    "AutodiffError",
    "add",
    "mul",
    "linear",
    "slice_",
    "pack",
    "unpack",
    "silu",
    "layer_norm",
    "attention",
    "depthwise_conv",
    "backward",
    "inference",
    "trace",
    "central_difference",
    "gradient_error",
    "finite_difference_check",
]

# creation order; one next() is one C call, so threads never share an id
_node_ids = itertools.count(1)
_recording = ContextVar("recording", default=True)  # off in inference()
_FLOAT32 = np.dtype(np.float32)  # kept by Tensor; all else is float64


class AutodiffError(RuntimeError):
    pass


class Tensor:
    """A float32 or float64 array plus the bookkeeping needed for reverse
    mode; any other data is cast to float64.

    Leaf tensors (parameters, inputs) have no parents. Op results carry
    references to their parents and a closure that maps the output
    gradient to per-parent gradients.
    """

    __slots__ = ("data", "parents", "_grad_fn", "grad", "op", "node_id")

    def __init__(self, data, parents=(), grad_fn=None, op="leaf"):
        recording = _recording.get()
        data = np.asarray(data)
        self.data = data if data.dtype == _FLOAT32 else \
            data.astype(np.float64, copy=False)
        self.parents = tuple(parents) if recording else ()
        self._grad_fn = grad_fn if recording else None
        self.grad = None
        self.op = op
        self.node_id = next(_node_ids)
        if recording and op != "leaf" and np.isnan(self.data).any():
            raise AutodiffError(f"NaN produced by node #{self.node_id} ({op})")

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"

    def __getitem__(self, key):
        return slice_(self, key)


def as_tensor(x):
    """``x`` itself if it is a Tensor, else a new leaf Tensor of it."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum out axes that numpy broadcasting introduced or stretched."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
        op="add",
    )


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
        op="mul",
    )


def linear(x, w, b=None):
    """``x @ w (+ b)`` over the last axis of ``x`` as one 2-D GEMM on its
    rows (a view of a 2-D ``x``); the weight gradient is one 2-D GEMM too,
    and the bias gradient a row of ones times the output gradient."""
    x, w = as_tensor(x), as_tensor(w)
    parents = (x, w) if b is None else (x, w, as_tensor(b))
    x2 = x.data.reshape(-1, x.data.shape[-1])
    out = x2 @ w.data
    if b is not None:
        out += parents[2].data

    def grad_fn(g):
        g2 = g.reshape(-1, g.shape[-1])
        grads = ((g2 @ w.data.T).reshape(x.data.shape), x2.T @ g2)
        return grads if b is None else \
            (*grads, np.ones(len(g2), g2.dtype) @ g2)

    return Tensor(out.reshape(*x.data.shape[:-1], -1), parents, grad_fn,
                  op="linear")


def slice_(a, key):
    a = as_tensor(a)
    fancy = any(isinstance(k, (list, np.ndarray))
                for k in (key if isinstance(key, tuple) else (key,)))

    def grad_fn(g):
        full = np.zeros_like(a.data)
        if fancy:  # an index array may repeat an element: accumulate
            np.add.at(full, key, g)
        else:
            full[key] = g
        return (full,)

    return Tensor(a.data[key], (a,), grad_fn, op="slice")


def _scatter(a, rows):
    out = np.zeros((*rows.shape, a.shape[-1]), a.dtype)
    out[rows] = a  # masked rows never repeat: no accumulation
    return out


def pack(x, rows):
    """The ``(N, C)`` rows of a ``(B, T, C)`` Tensor where the boolean
    ``(B, T)`` mask ``rows`` is set, in row-major order. With ``rows``
    None there is no padding and ``x`` itself is returned."""
    return x if rows is None else Tensor(
        x.data[rows], (x,), lambda g: (_scatter(g, rows),), op="pack")


def unpack(x, rows):
    """Inverse of ``pack``: ``(N, C)`` rows scattered into zeros."""
    return x if rows is None else Tensor(
        _scatter(x.data, rows), (x,), lambda g: (g[rows],), op="unpack")


def silu(a):
    """Smooth gated unit x * sigmoid(x) as one node; the sigmoid is
    1 / (1 + exp(-x)) in place, exactly 0 below x = -709."""
    a = as_tensor(a)
    s = np.negative(a.data, out=np.empty_like(a.data))  # 0-d too
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)

    def grad_fn(g):  # g * s * (1 + x (1 - s)), built in one array
        d = np.subtract(1.0, s, out=np.empty_like(s))
        d *= a.data
        d += 1.0
        d *= s
        return (np.multiply(d, g, out=d),)

    return Tensor(a.data * s, (a,), grad_fn, op="silu")


def layer_norm(x, scale, bias, eps):
    """Normalise the last axis to zero mean and unit variance, then apply
    ``scale`` and ``bias``."""
    x, scale, bias = as_tensor(x), as_tensor(scale), as_tensor(bias)
    n = x.data.shape[-1]
    xc = x.data - x.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    var = (xc * xc).sum(axis=-1, keepdims=True) * (1.0 / n)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def grad_fn(g):  # every sum is a product with ones
        gh, g2, ones = g * scale.data, g.reshape(-1, n), np.ones(n, g.dtype)
        gx = inv * (gh - ((gh @ ones)[..., None]
                          + xhat * ((gh * xhat) @ ones)[..., None])
                    * (1.0 / n))
        rows = np.ones(len(g2), g.dtype)
        return gx, rows @ (g2 * xhat.reshape(-1, n)), rows @ g2

    return Tensor(xhat * scale.data + bias.data, (x, scale, bias), grad_fn,
                  op="layer_norm")


def attention(q, k, v, heads, disallow=None):
    """Multi-head scaled dot-product attention of ``(B, T, heads * dh)``
    inputs of one batch size B, computed on ``(B, heads, T, dh)`` and merged
    back. Scores where the boolean ``disallow`` (broadcast to ``(B, Tq, Tk)``)
    is set get -1e30 added. Every query must keep a key: its disallowed
    probabilities, and so their score gradients, are then exactly 0."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)

    def split(a):  # (B, T, heads * dh) -> (B, heads, T, dh)
        return a.reshape(*a.shape[:-1], heads, -1).swapaxes(-2, -3)

    def merge(g, a):  # gradient for ``a`` from one on its split
        return g.swapaxes(-2, -3).reshape(a.data.shape)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / math.sqrt(qh.shape[-1])  # a numpy scalar would upcast
    # row sums as BLAS matrix-vector products
    ones = np.ones(kh.shape[-2], kh.dtype)
    p = qh @ kh.swapaxes(-1, -2)  # softmax in place on the scores
    p *= scale
    if disallow is not None:
        mask = np.where(disallow, -1e30, 0.0).astype(p.dtype, copy=False)
        p += mask[..., None, :, :]
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= (p @ ones)[..., None]
    out = p @ vh

    def grad_fn(g):
        go = split(g)
        gs = go @ vh.swapaxes(-1, -2)
        gs -= ((gs * p) @ ones)[..., None]
        gs *= p
        gs *= scale
        return (merge(gs @ kh, q), merge(gs.swapaxes(-1, -2) @ qh, k),
                merge(p.swapaxes(-1, -2) @ go, v))

    merged = out.swapaxes(-2, -3)
    return Tensor(merged.reshape(*merged.shape[:-2], -1), (q, k, v), grad_fn,
                  op="attention")


def depthwise_conv(x, w):
    """Per-channel convolution along T of ``(B, T, C)`` input with a
    ``(k, C)`` kernel, k odd, zero-padded: each tap adds in range only."""
    x, w = as_tensor(x), as_tensor(w)
    k, T, r = w.data.shape[0], x.data.shape[1], w.data.shape[0] // 2
    taps = [(i, slice(max(0, r - i), T + min(0, r - i)),  # frames written
             slice(max(0, i - r), T + min(0, i - r)))  # frames read
            for i in range(k) if abs(i - r) < T]
    out = np.zeros_like(x.data)
    for i, o, s in taps:
        out[:, o] += x.data[:, s] * w.data[i]

    def grad_fn(g):
        gx, gw = np.zeros_like(x.data), np.zeros_like(w.data)
        for i, o, s in taps:
            gx[:, s] += g[:, o] * w.data[i]
            gw[i] = (g[:, o] * x.data[:, s]).sum(axis=(0, 1))
        return gx, gw

    return Tensor(out, (x, w), grad_fn, op="depthwise_conv")


@contextmanager
def inference():
    """Ops inside keep no parents or grad_fn and skip the NaN check, in
    this thread or task only; ``backward`` through their results raises."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


class Tape:
    """Topologically ordered record of every node reachable from an output."""

    __slots__ = ("nodes",)

    def __init__(self, nodes):
        self.nodes = nodes


def trace(output):
    """The tape for ``output``: the nodes reachable from it in creation
    order, in which every parent precedes its consumers."""
    reached, stack = {id(output): output}, [output]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in reached:
                reached[id(p)] = p
                stack.append(p)
    return Tape(sorted(reached.values(), key=lambda n: n.node_id))


def backward(output):
    """Accumulate gradients of a scalar ``output`` into every reachable node.

    Returns the tape that was walked. Leaves that do not feed the output
    keep a zero gradient (set lazily: untouched ``grad`` stays None and is
    treated as zero by callers). A node's first gradient is adopted as is
    and later ones are summed into a new array, so ``grad`` arrays may be
    shared with other nodes and must be treated as read-only.
    """
    if output.data.size != 1:
        raise AutodiffError(
            f"backward requires a scalar output, got shape {output.data.shape}"
        )
    tape = trace(output)
    for node in tape.nodes:
        node.grad = None
    output.grad = np.ones_like(output.data)
    for node in reversed(tape.nodes):
        if node._grad_fn is None and node.op != "leaf":
            raise AutodiffError(f"{node.op} #{node.node_id} ran in inference()")
        if node._grad_fn is None or node.grad is None:
            continue
        grads = node._grad_fn(node.grad)
        for parent, g in zip(node.parents, grads):
            parent.grad = g if parent.grad is None else parent.grad + g
    return tape


def grad_of(leaf):
    """Gradient of a leaf after backward; zeros if the leaf was unreachable."""
    return leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)


def central_difference(f, xs, us, step=1e-4):
    """Richardson-extrapolated central difference (4 D(h) - D(2h)) / 3 of
    the scalar Tensor ``f()`` along the direction ``us``: each array of
    ``xs``, which ``f`` reads, moves in place by +-h and +-2h times its
    array of ``us`` and is then restored. This estimates the sum of
    <grad, u> over the arrays; a unit direction probes one entry alone.
    Cancelling the h^2 error keeps round-off near 1e-12 at this h, in
    float64: float32 round-off alone is about 1e-3 here, so any other dtype
    is a ValueError."""
    if step <= 0:
        raise ValueError("step must be positive")
    for x in xs:
        if x.dtype != np.float64:
            raise ValueError(f"finite differences need float64 arrays, "
                             f"got {x.dtype}")
    origs = [x.copy() for x in xs]
    d = []
    try:
        for h in (step, 2 * step):
            at = []
            for s in (h, -h):
                for x, o, u in zip(xs, origs, us):
                    x[...] = o + s * u
                at.append(float(f().data))
            if not np.isfinite(at).all():
                raise AutodiffError(
                    "function returned non-finite value at probe point")
            d.append((at[0] - at[1]) / (2 * h))
    finally:
        for x, o in zip(xs, origs):
            x[...] = o
    return (4 * d[0] - d[1]) / 3


def gradient_error(analytic, numeric):
    """||a - n||_inf / max(||a||_inf, ||n||_inf, 1e-8): the error of a
    gradient, or of a directional derivative, scaled to the larger of the
    two. Every entry is judged against the largest, so the round-off of an
    entry far below it does not read as an error."""
    a, n = np.ravel(analytic), np.ravel(numeric)
    scale = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0), 1e-8)
    return float(np.abs(a - n).max(initial=0.0) / scale)


def finite_difference_check(f, x, step=1e-4):
    """``gradient_error`` of the analytic gradient of ``f`` at ``x``: the
    largest entry error scaled to the larger gradient's largest entry.

    ``f`` maps a leaf Tensor to a scalar Tensor. The analytic gradient comes
    from one reverse pass, the numeric one from ``central_difference`` along
    each unit direction in turn, so ``x`` must be float64.
    """
    leaf = Tensor(np.array(as_tensor(x).data))
    backward(f(leaf))
    base = leaf.data.copy()
    units = np.eye(base.size).reshape(base.size, *base.shape)
    numeric = [central_difference(lambda: f(Tensor(base)), [base], [u], step)
               for u in units]
    return gradient_error(grad_of(leaf), numeric)
