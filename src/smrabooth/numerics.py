"""Dense-tensor substrate: a small reverse-mode tape over numpy plus the
finite-difference gradient harness that every differentiable operation in
this repo is verified against.

Training runs in float32; verification paths rerun the same graph in float64
because central differences are unreliable at 32-bit precision.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptArtifact, NonFiniteProbe, ShapeError

__all__ = [
    "Tensor", "ParamStore", "GradCheckReport", "grad_check", "softmax_rows",
    "no_grad", "tensor", "constant", "concatenate", "stack", "take_rows",
    "stencil", "exp", "tanh", "sqrt", "absval", "clamp_min", "gelu",
    "softmax", "matmul", "make_rng", "write_stns", "read_stns", "sha256_file",
]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling tape construction (used by FD probes)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to the parent's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    """Row-major dense array with an optional gradient tape.

    dims (== data.shape) and data are the authoritative state; everything
    else is tape bookkeeping. Values are expected to stay finite; NaN/Inf
    is an error state checked at module boundaries.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps")

    def __init__(self, data, requires_grad=False, _parents=(), _vjps=()):
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjps = _vjps

    # -- basic introspection --

    @property
    def dims(self):
        return list(self.data.shape)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(()))

    def numpy(self):
        return self.data

    def detach(self):
        return Tensor(self.data)

    def copy(self):
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def is_finite(self):
        return bool(np.isfinite(self.data).all())

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype})"

    # -- tape --

    def backward(self, seed=None):
        """Reverse-mode sweep from this node. Scalar roots seed with 1."""
        if seed is None:
            if self.size != 1:
                raise ShapeError("backward() without seed needs a scalar root")
            seed = np.ones_like(self.data)
        # iterative post-order topo sort (graphs can be thousands deep)
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        grads = {id(self): np.asarray(seed, dtype=self.data.dtype)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            for parent, vjp in zip(node._parents, node._vjps):
                if vjp is None:
                    continue
                pg = vjp(g)
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg

    # -- arithmetic --

    def __add__(self, other):
        return _binop(self, other, np.add,
                      lambda g, a, b: _unbroadcast(g, a.shape),
                      lambda g, a, b: _unbroadcast(g, b.shape))

    __radd__ = __add__

    def __sub__(self, other):
        return _binop(self, other, np.subtract,
                      lambda g, a, b: _unbroadcast(g, a.shape),
                      lambda g, a, b: _unbroadcast(-g, b.shape))

    def __rsub__(self, other):
        return _wrap(other, self.dtype).__sub__(self)

    def __mul__(self, other):
        return _binop(self, other, np.multiply,
                      lambda g, a, b: _unbroadcast(g * b, a.shape),
                      lambda g, a, b: _unbroadcast(g * a, b.shape))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binop(self, other, np.divide,
                      lambda g, a, b: _unbroadcast(g / b, a.shape),
                      lambda g, a, b: _unbroadcast(-g * a / (b * b), b.shape))

    def __rtruediv__(self, other):
        return _wrap(other, self.dtype).__truediv__(self)

    def __neg__(self):
        return _unop(self, np.negative, lambda g, x, y: -g)

    def __pow__(self, c):
        c = float(c)
        return _unop(self, lambda x: x ** c,
                     lambda g, x, y: g * c * x ** (c - 1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        out_data = self.data[key]

        def vjp(g, x=self.data, key=key):
            gx = np.zeros_like(x)
            np.add.at(gx, key, g)
            return gx

        return _node(out_data, (self,), (vjp,))

    # -- shape ops --

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape
        return _node(self.data.reshape(shape), (self,),
                     (lambda g: g.reshape(orig),))

    def transpose(self, axes):
        inv = np.argsort(axes)
        return _node(self.data.transpose(axes), (self,),
                     (lambda g: g.transpose(inv),))

    # -- reductions --

    def sum(self, axis=None, keepdims=False):
        out = self.data.sum(axis=axis, keepdims=keepdims)
        shape, nd = self.data.shape, self.data.ndim

        def vjp(g):
            if axis is None:
                return np.broadcast_to(np.asarray(g).reshape(()), shape).copy()
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(a % nd for a in axes)
            if not keepdims:
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            return np.broadcast_to(g, shape).copy()

        return _node(out, (self,), (vjp,))

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(n)


def _wrap(x, dtype=np.float32):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _node(data, parents, vjps):
    if _GRAD_ENABLED and any(
        p.requires_grad or p._parents for p in parents
    ):
        return Tensor(data, _parents=parents, _vjps=vjps)
    return Tensor(data)


def _binop(a, b, fwd, vjp_a, vjp_b):
    a = _wrap(a)
    b = _wrap(b, a.dtype)
    out = fwd(a.data, b.data)
    ad, bd = a.data, b.data
    return _node(out, (a, b),
                 (lambda g: vjp_a(g, ad, bd), lambda g: vjp_b(g, ad, bd)))


def _unop(x, fwd, vjp):
    x = _wrap(x)
    out = fwd(x.data)
    xd = x.data
    return _node(out, (x,), (lambda g: vjp(g, xd, out),))


def tensor(data, dtype=np.float32, requires_grad=False):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=requires_grad)


def constant(data, dtype=np.float32):
    return Tensor(np.asarray(data, dtype=dtype))


# -- elementwise functions -----------------------------------------------------

def exp(x):
    return _unop(x, np.exp, lambda g, xd, out: g * out)


def tanh(x):
    return _unop(x, np.tanh, lambda g, xd, out: g * (1.0 - out * out))


def sqrt(x):
    return _unop(x, np.sqrt, lambda g, xd, out: g * 0.5 / out)


def absval(x):
    return _unop(x, np.abs, lambda g, xd, out: g * np.sign(xd))


def clamp_min(x, floor):
    floor = float(floor)
    return _unop(x, lambda d: np.maximum(d, floor),
                 lambda g, xd, out: g * (xd > floor))


_GELU_K = 0.7978845608028654  # sqrt(2/pi)
_GELU_C = 0.044715


def gelu(x):
    """tanh-approximation GELU as a single tape node."""

    def fwd(d):
        return 0.5 * d * (1.0 + np.tanh(_GELU_K * (d + _GELU_C * d ** 3)))

    def vjp(g, d, out):
        t = np.tanh(_GELU_K * (d + _GELU_C * d ** 3))
        dt = (1.0 - t * t) * _GELU_K * (1.0 + 3.0 * _GELU_C * d * d)
        return g * (0.5 * (1.0 + t) + 0.5 * d * dt)

    return _unop(x, fwd, vjp)


def softmax(x, axis=-1):
    """Numerically stable softmax along one axis (max subtraction)."""

    def fwd(d):
        z = d - d.max(axis=axis, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=axis, keepdims=True)

    x = _wrap(x)
    out = fwd(x.data)

    def vjp(g, out=out):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - dot)

    return _node(out, (x,), (vjp,))


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def vjp_a(g):
        ga = g @ np.swapaxes(bd, -1, -2) if bd.ndim > 1 else np.outer(g, bd)
        return _unbroadcast(ga, ad.shape)

    def vjp_b(g):
        gb = np.swapaxes(ad, -1, -2) @ g if ad.ndim > 1 else np.outer(ad, g)
        return _unbroadcast(gb, bd.shape)

    return _node(out, (a, b), (vjp_a, vjp_b))


def concatenate(parts, axis=0):
    parts = [_wrap(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def make_vjp(i):
        def vjp(g):
            return np.split(g, offsets, axis=axis)[i]
        return vjp

    return _node(out, tuple(parts), tuple(make_vjp(i) for i in range(len(parts))))


def stack(parts, axis=0):
    axis = axis % (len(_wrap(parts[0]).shape) + 1)
    expanded = [p.reshape(p.shape[:axis] + (1,) + p.shape[axis:])
                for p in (_wrap(q) for q in parts)]
    return concatenate(expanded, axis=axis)


def take_rows(table, ids):
    """Row gather (embedding lookup); backward scatters into the table."""
    table = _wrap(table)
    ids = np.asarray(ids, dtype=np.int64)
    out = table.data[ids]

    def vjp(g, shape=table.data.shape):
        gt = np.zeros(shape, dtype=g.dtype)
        np.add.at(gt, ids, g)
        return gt

    return _node(out, (table,), (vjp,))


def stencil(x, groups):
    """Linear 3x3 stencil over the last two axes as a single tape node.

    x is replicate-padded by one pixel on both axes; window (dy, dx) of the
    padded array is the input shifted so that output [i, j] reads padded
    [i + dy, j + dx]. groups is a sequence of (weight, taps) with taps a
    sequence of (dy, dx); the result is the sum over groups of weight times
    the sum of the taps' windows, added in the order given so the rounding
    is fixed by the caller. The adjoint scatters the weighted gradient back
    onto each window, then folds the pad rows and columns onto the border
    pixels they replicate.
    """
    x = _wrap(x)
    if x.ndim < 2:
        raise ShapeError(f"stencil needs at least 2 axes, got shape {x.shape}")
    h, w = x.shape[-2:]
    cast = x.dtype.type
    p = np.pad(x.data, [(0, 0)] * (x.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    out = None
    for weight, taps in groups:
        acc = None
        for dy, dx in taps:
            win = p[..., dy:dy + h, dx:dx + w]
            acc = win if acc is None else acc + win
        acc = acc * cast(weight)
        out = acc if out is None else out + acc

    def vjp(g):
        gp = np.zeros(p.shape, dtype=g.dtype)
        for weight, taps in groups:
            gw = g * cast(weight)
            for dy, dx in taps:
                gp[..., dy:dy + h, dx:dx + w] += gw
        gp[..., 1, :] += gp[..., 0, :]
        gp[..., -2, :] += gp[..., -1, :]
        gp[..., :, 1] += gp[..., :, 0]
        gp[..., :, -2] += gp[..., :, -1]
        return np.ascontiguousarray(gp[..., 1:-1, 1:-1])

    return _node(out, (x,), (vjp,))


def softmax_rows(m):
    """Stable row softmax of a rank-2 matrix; rows sum to 1."""
    m = _wrap(m)
    if m.ndim != 2:
        raise ShapeError(f"softmax_rows expects rank-2, got rank {m.ndim}")
    return softmax(m, axis=-1)


# -- parameter store -----------------------------------------------------------

class ParamStore:
    """Named parameter tensors with lexicographic iteration order.

    Names are dot-separated paths, unique by construction. Iteration order
    is sorted so updates and serialization are deterministic.
    """

    def __init__(self, rng_seed=0):
        self.rng_seed = int(rng_seed)
        self._params = {}

    def add(self, name, value, trainable=True):
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = value if isinstance(value, Tensor) else Tensor(np.asarray(value))
        t.requires_grad = trainable
        self._params[name] = t
        return t

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def __len__(self):
        return len(self._params)

    def names(self):
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def trainable_items(self):
        for name, p in self.items():
            if p.requires_grad:
                yield name, p

    def zero_grads(self):
        for p in self._params.values():
            p.grad = None

    def astype(self, dtype):
        out = ParamStore(self.rng_seed)
        for name, p in self.items():
            out.add(name, Tensor(p.data.astype(dtype)), trainable=p.requires_grad)
        return out

    def copy(self):
        out = ParamStore(self.rng_seed)
        for name, p in self.items():
            out.add(name, Tensor(p.data.copy()), trainable=p.requires_grad)
        return out

    def checksum(self):
        h = hashlib.sha256()
        for name, p in self.items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(p.data).tobytes())
        return h.hexdigest()


# -- gradient checking ---------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    n_entries: int
    tol: float
    per_param: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.max_rel_err < self.tol


def grad_check(loss_fn, params, eps=1e-4, tol=1e-3):
    """Compare tape gradients against central finite differences.

    Every parameter entry is probed at +/- eps in float64. Relative error
    uses denominator max(|analytic|, |numeric|, 1e-8). Raises NonFiniteProbe
    if the loss is non-finite at any probe point.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    work = params.astype(np.float64)

    loss = loss_fn(work)
    if not np.isfinite(loss.data).all():
        raise NonFiniteProbe("loss non-finite at the expansion point")
    loss.backward()
    analytic = {}
    for name, p in work.trainable_items():
        analytic[name] = (np.zeros_like(p.data) if p.grad is None
                          else np.asarray(p.grad, dtype=np.float64))

    max_rel, worst, total = 0.0, "", 0
    per_param = {}
    with no_grad():
        for name, p in work.trainable_items():
            param_max = 0.0
            flat = p.data.reshape(-1)
            ana = analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                f_plus = loss_fn(work).item()
                flat[i] = orig - eps
                f_minus = loss_fn(work).item()
                flat[i] = orig
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise NonFiniteProbe(f"non-finite loss probing {name}[{i}]")
                numeric = (f_plus - f_minus) / (2.0 * eps)
                rel = abs(ana[i] - numeric) / max(abs(ana[i]), abs(numeric), 1e-8)
                if rel > param_max:
                    param_max = rel
                if rel > max_rel:
                    max_rel, worst = rel, name
                total += 1
            per_param[name] = param_max
    return GradCheckReport(max_rel_err=max_rel, worst_param=worst,
                           n_entries=total, tol=tol, per_param=per_param)


# -- deterministic RNG streams ---------------------------------------------------

def make_rng(seed, *tags):
    """Named deterministic RNG sub-stream, stable across runs and platforms."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", int(seed) & 0xFFFFFFFFFFFFFFFF))
    for tag in tags:
        h.update(b"/")
        h.update(str(tag).encode())
    return np.random.default_rng(int.from_bytes(h.digest(), "little"))


# -- STNS tensor files -----------------------------------------------------------

_STNS_MAGIC = b"STNS"


def write_stns(path, array):
    """Binary tensor file: magic 'STNS', u8 version=1, u8 ndim, u32 LE dims,
    float32 LE row-major payload."""
    arr = np.ascontiguousarray(np.asarray(array), dtype="<f4")
    if arr.ndim > 255:
        raise ShapeError("too many dimensions for STNS")
    with open(path, "wb") as f:
        f.write(_STNS_MAGIC)
        f.write(struct.pack("<BB", 1, arr.ndim))
        for d in arr.shape:
            f.write(struct.pack("<I", d))
        f.write(arr.tobytes(order="C"))


def read_stns(path):
    """Inverse of write_stns. Raises CorruptArtifact unless the file is
    exactly one well-formed STNS record."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _STNS_MAGIC:
        raise CorruptArtifact(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 6:
        raise CorruptArtifact(f"{path}: truncated header")
    version, ndim = struct.unpack_from("<BB", raw, 4)
    if version != 1:
        raise CorruptArtifact(f"{path}: unsupported STNS version {version}")
    off = 6 + 4 * ndim
    if len(raw) < off:
        raise CorruptArtifact(f"{path}: truncated header")
    dims = struct.unpack_from(f"<{ndim}I", raw, 6)
    count = math.prod(dims)
    expected = off + 4 * count
    if len(raw) < expected:
        raise CorruptArtifact(
            f"{path}: truncated payload ({len(raw) - off} of {4 * count} bytes)")
    if len(raw) > expected:
        raise CorruptArtifact(
            f"{path}: {len(raw) - expected} trailing bytes after the payload")
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=off)
    return data.reshape(dims).astype(np.float32)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
