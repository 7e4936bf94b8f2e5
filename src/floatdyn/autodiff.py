"""Reverse-mode automatic differentiation on array-valued tapes.

A :class:`Tape` records every operation applied to :class:`Var` handles;
:func:`backward` replays the record once in reverse to accumulate exact
adjoints.  The Adam optimizer lives here too, and so does the one dense
network: :func:`mlp_jet` pushes its value and, in Taylor mode, its first
and second input-derivatives over d inputs through it in numpy, and
:func:`mlp_jet_vjp` is its reverse sweep.  :func:`forward_mlp` is order 0
of that jet and ``model.stream_eval`` order 1 or 2 at d = 2; on the tape
each is one node.  So the rest of the package can differentiate any
scalar loss with respect to all network parameters without an external
ML framework.

The math functions in this module (``sqrt``, ``exp``, ``softplus``, ...)
dispatch on their argument: ``Var`` inputs are recorded on the tape, plain
arrays and floats fall through to numpy.  Formulas written against them
therefore run both in recording mode (training) and in raw numpy mode
(rollouts, evaluation), from a single source.

All numerics are float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

Array = np.ndarray

ACTIVATIONS = ("tanh", "relu", "softplus")


class ConfigurationError(ValueError):
    """Structurally invalid setup: bad shapes, unknown names, bad wiring."""


class UsageError(ValueError):
    """An operation was invoked outside its contract."""


class TrainingDivergedError(RuntimeError):
    """Non-finite gradients or losses; optimization cannot continue."""


def _const(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce an adjoint back to the shape of a broadcast operand."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tape:
    """Append-only record of array-valued operations.

    Node ``i`` stores its value, its parent indices and one
    vector-Jacobian callback per parent.  Construction order is
    topological order, so a single reverse sweep yields adjoints
    ``d(root)/d(node)`` for every node.
    """

    __slots__ = ("values", "parents", "vjps", "adjoints")

    def __init__(self) -> None:
        self.values: list[Array] = []
        self.parents: list[tuple[int, ...]] = []
        self.vjps: list[tuple[Callable[[Array], Array], ...]] = []
        self.adjoints: list[Array | None] = []

    def __len__(self) -> int:
        return len(self.values)

    def leaf(self, value) -> "Var":
        """Record an input node (parameter or constant of interest)."""
        return self._record(_const(value), (), ())

    def _record(self, value: Array, parents: tuple[int, ...], vjps) -> "Var":
        self.values.append(value)
        self.parents.append(parents)
        self.vjps.append(vjps)
        return Var(self, len(self.values) - 1)

    def adjoint(self, var: "Var") -> Array:
        """Adjoint of ``var`` after :func:`backward`; exact zero if unreachable."""
        if not self.adjoints:
            raise UsageError("backward() has not been run on this tape")
        a = self.adjoints[var.idx]
        if a is None:
            return np.zeros_like(self.values[var.idx])
        return a


class Var:
    """Handle to one tape node.  Supports numpy-style arithmetic."""

    __slots__ = ("tape", "idx")
    __array_ufunc__ = None  # force numpy to defer to our reflected operators

    def __init__(self, tape: Tape, idx: int) -> None:
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> Array:
        return self.tape.values[self.idx]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Var(idx={self.idx}, value={self.value!r})"

    # -- binary arithmetic -------------------------------------------------

    def _coerce(self, other) -> tuple[Array | None, "Var | None"]:
        if isinstance(other, Var):
            if other.tape is not self.tape:
                raise UsageError("cannot mix Vars from different tapes")
            return None, other
        return _const(other), None

    def __add__(self, other):
        c, v = self._coerce(other)
        a = self.value
        if v is None:
            out = a + c
            return self.tape._record(
                out, (self.idx,), (lambda g, s=a.shape: _unbroadcast(g, s),)
            )
        b = v.value
        out = a + b
        return self.tape._record(
            out,
            (self.idx, v.idx),
            (
                lambda g, s=a.shape: _unbroadcast(g, s),
                lambda g, s=b.shape: _unbroadcast(g, s),
            ),
        )

    __radd__ = __add__

    def __sub__(self, other):
        c, v = self._coerce(other)
        a = self.value
        if v is None:
            out = a - c
            return self.tape._record(
                out, (self.idx,), (lambda g, s=a.shape: _unbroadcast(g, s),)
            )
        b = v.value
        out = a - b
        return self.tape._record(
            out,
            (self.idx, v.idx),
            (
                lambda g, s=a.shape: _unbroadcast(g, s),
                lambda g, s=b.shape: _unbroadcast(-g, s),
            ),
        )

    def __rsub__(self, other):
        c, _ = self._coerce(other)
        a = self.value
        out = c - a
        return self.tape._record(
            out, (self.idx,), (lambda g, s=a.shape: _unbroadcast(-g, s),)
        )

    def __mul__(self, other):
        c, v = self._coerce(other)
        a = self.value
        if v is None:
            out = a * c
            return self.tape._record(
                out, (self.idx,), (lambda g, s=a.shape, c=c: _unbroadcast(g * c, s),)
            )
        b = v.value
        out = a * b
        return self.tape._record(
            out,
            (self.idx, v.idx),
            (
                lambda g, s=a.shape, b=b: _unbroadcast(g * b, s),
                lambda g, s=b.shape, a=a: _unbroadcast(g * a, s),
            ),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        c, v = self._coerce(other)
        a = self.value
        if v is None:
            out = a / c
            return self.tape._record(
                out, (self.idx,), (lambda g, s=a.shape, c=c: _unbroadcast(g / c, s),)
            )
        b = v.value
        out = a / b
        return self.tape._record(
            out,
            (self.idx, v.idx),
            (
                lambda g, s=a.shape, b=b: _unbroadcast(g / b, s),
                lambda g, s=b.shape, a=a, b=b: _unbroadcast(-g * a / (b * b), s),
            ),
        )

    def __rtruediv__(self, other):
        c, _ = self._coerce(other)
        a = self.value
        out = c / a
        return self.tape._record(
            out,
            (self.idx,),
            (lambda g, s=a.shape, a=a, c=c: _unbroadcast(-g * c / (a * a), s),),
        )

    def __neg__(self):
        a = self.value
        return self.tape._record(-a, (self.idx,), (lambda g: -g,))

    def __pow__(self, p):
        if isinstance(p, Var):
            raise UsageError("only constant exponents are supported")
        p = float(p)
        a = self.value
        out = a**p
        return self.tape._record(
            out, (self.idx,), (lambda g, a=a, p=p: g * p * a ** (p - 1.0),)
        )


def _is_var(x) -> bool:
    return isinstance(x, Var)


# -- elementwise functions (dispatch Var / numpy) --------------------------


def _sigmoid_value(z: Array) -> Array:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus_value(z: Array) -> Array:
    # overflow-safe form: max(z, 0) + log1p(exp(-|z|))
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def sigmoid(x):
    if _is_var(x):
        y = _sigmoid_value(x.value)
        return x.tape._record(y, (x.idx,), (lambda g, y=y: g * y * (1.0 - y),))
    return _sigmoid_value(_const(x))


def softplus(x):
    if _is_var(x):
        z = x.value
        y = _softplus_value(z)
        s = _sigmoid_value(z)
        return x.tape._record(y, (x.idx,), (lambda g, s=s: g * s,))
    return _softplus_value(_const(x))


def relu_prime(x) -> Array:
    """relu's step 1[x > 0] (0 at x = 0) as a constant: on the tape it has no node and no adjoint."""
    z = x.value if _is_var(x) else _const(x)
    return (z > 0.0).astype(np.float64)


def activation_value_and_base(name: str, z: Array) -> tuple[Array, Array]:
    """phi(z) plus the cached quantity its derivatives are built from."""
    if name == "tanh":
        t = np.tanh(z)
        return t, t
    if name == "softplus":
        return _softplus_value(z), _sigmoid_value(z)
    if name == "relu":
        return np.maximum(z, 0.0), relu_prime(z)
    raise ConfigurationError(f"unknown activation: {name!r}")


def activation_derivatives(name: str, base: Array, order: int = 1):
    """(phi', phi'', phi''') from the cached base; higher entries None if zero.

    For relu the almost-everywhere derivatives are used (phi''=phi'''=0).
    """
    if name == "tanh":
        t = base
        s1 = 1.0 - t * t
        if order == 1:
            return s1, None, None
        s2 = -2.0 * t * s1
        if order == 2:
            return s1, s2, None
        return s1, s2, s1 * (6.0 * t * t - 2.0)
    if name == "softplus":
        s = base
        s1 = s
        if order == 1:
            return s1, None, None
        s2 = s * (1.0 - s)
        if order == 2:
            return s1, s2, None
        return s1, s2, s2 * (1.0 - 2.0 * s)
    if name == "relu":
        return base, None, None
    raise ConfigurationError(f"unknown activation: {name!r}")


def exp(x):
    if _is_var(x):
        y = np.exp(x.value)
        return x.tape._record(y, (x.idx,), (lambda g, y=y: g * y,))
    return np.exp(x)


def sqrt(x):
    if _is_var(x):
        y = np.sqrt(x.value)
        return x.tape._record(y, (x.idx,), (lambda g, y=y: g / (2.0 * y),))
    return np.sqrt(x)


# -- structural ops ---------------------------------------------------------


def vsum(x):
    """Sum all entries to a scalar."""
    if _is_var(x):
        a = x.value
        out = _const(a.sum())
        return x.tape._record(
            out, (x.idx,), (lambda g, s=a.shape: np.broadcast_to(g, s),)
        )
    return _const(np.sum(x))


def vmean(x):
    """Mean of all entries as a scalar."""
    if _is_var(x):
        a = x.value
        n = a.size
        out = _const(a.mean())
        return x.tape._record(
            out, (x.idx,), (lambda g, s=a.shape, n=n: np.broadcast_to(g / n, s),)
        )
    return _const(np.mean(x))


def take_col(x, j: int):
    """Column ``j`` of a 2-D array (or entry ``j`` of a 1-D array)."""
    if _is_var(x):
        a = x.value
        if a.ndim == 2:
            def vjp(g, shape=a.shape, j=j):
                out = np.zeros(shape)
                out[:, j] = g
                return out

            return x.tape._record(a[:, j].copy(), (x.idx,), (vjp,))
        if a.ndim == 1:
            def vjp(g, shape=a.shape, j=j):
                out = np.zeros(shape)
                out[j] = g
                return out

            return x.tape._record(_const(a[j]), (x.idx,), (vjp,))
        raise ConfigurationError(f"take_col expects 1-D/2-D input, got {a.ndim}-D")
    a = _const(x)
    return a[:, j] if a.ndim == 2 else _const(a[j])


def stack_last(parts: Sequence):
    """Stack scalars into a vector, or (N,) columns into an (N, K) matrix.

    Parts may mix Vars with plain arrays/floats; constants are lifted to
    the common shape.
    """
    var_parts = [p for p in parts if _is_var(p)]
    if not var_parts:
        shape = np.shape(parts[0])
        if all(type(p) is np.ndarray and p.dtype == np.float64 and p.shape == shape for p in parts):
            return np.stack(parts, axis=-1)
        arrs = [_const(p) for p in parts]
        ref = next((a.shape for a in arrs if a.ndim > 0), ())
        arrs = [np.broadcast_to(a, ref) for a in arrs]
        return np.stack(arrs, axis=-1)
    tape = var_parts[0].tape
    ref = var_parts[0].value.shape
    vals = []
    parents = []
    vjps = []
    for k, p in enumerate(parts):
        if _is_var(p):
            if p.value.shape != ref:
                raise ConfigurationError("stack_last parts must share a shape")
            vals.append(p.value)
            parents.append(p.idx)
            vjps.append(lambda g, k=k: g[..., k])
        else:
            vals.append(np.broadcast_to(_const(p), ref))
    out = np.stack(vals, axis=-1)
    return tape._record(out, tuple(parents), tuple(vjps))


# -- backward pass -----------------------------------------------------------


def backward(tape: Tape, root: Var) -> None:
    """Populate ``tape.adjoints`` with d(root)/d(node) for every node.

    Re-running on the same tape zeroes the previous adjoints first, so
    repeated calls from the same root are idempotent.
    """
    if root.tape is not tape:
        raise UsageError("root does not belong to this tape")
    if root.value.size != 1:
        raise UsageError(f"backward root must be scalar-valued, got shape {root.shape}")
    n = len(tape)
    adj: list[Array | None] = [None] * n
    adj[root.idx] = np.ones_like(root.value)
    for i in range(root.idx, -1, -1):
        g = adj[i]
        if g is None:
            continue
        for p, vjp in zip(tape.parents[i], tape.vjps[i]):
            contrib = vjp(g)
            if adj[p] is None:
                adj[p] = contrib
            else:
                adj[p] = adj[p] + contrib
    tape.adjoints = adj


def parameter_gradients(tape: Tape, leaves: Mapping[str, Var]) -> dict[str, Array]:
    """Gradient map for named leaves after :func:`backward`.

    Leaves the root never touched get exact zeros.
    """
    return {name: tape.adjoint(var) for name, var in leaves.items()}


def custom_node(tape: Tape, value: Array, parents: Sequence[Var], multi_vjp) -> Var:
    """Record a coarse-grained operation with a shared backward.

    ``multi_vjp(adjoint)`` must return one gradient per parent, in order.
    It runs once per backward pass; the per-parent callbacks the Tape
    expects all read from that shared result.  A ``multi_vjp`` must not
    reference a ``Var``: each Var holds its tape, and the tape holds the
    closure, so the tape would become a reference cycle that only the
    cyclic garbage collector frees.
    """
    cache: dict[int, list[Array]] = {}

    def make(i: int):
        def vjp(g, i=i):
            key = id(g)
            if key not in cache:
                cache.clear()
                cache[key] = multi_vjp(g)
            return cache[key][i]

        return vjp

    return tape._record(
        _const(value), tuple(p.idx for p in parents), tuple(make(i) for i in range(len(parents)))
    )


# -- parameter storage and checkpoints ---------------------------------------

CHECKPOINT_FORMAT = "floatdyn-checkpoint-v1"


class ParamStore:
    """Named float64 parameter tensors with a stable iteration order."""

    def __init__(self, tensors: Mapping[str, Array] | None = None) -> None:
        self._tensors: dict[str, Array] = {}
        if tensors:
            for name, value in tensors.items():
                self.add(name, value)

    def add(self, name: str, value) -> None:
        if name in self._tensors:
            raise ConfigurationError(f"duplicate parameter name: {name!r}")
        self._tensors[name] = _const(value).copy()

    def __getitem__(self, name: str) -> Array:
        return self._tensors[name]

    def __setitem__(self, name: str, value) -> None:
        if name not in self._tensors:
            raise ConfigurationError(f"unknown parameter name: {name!r}")
        new = _const(value)
        if new.shape != self._tensors[name].shape:
            raise ConfigurationError(
                f"shape mismatch for {name!r}: {new.shape} vs {self._tensors[name].shape}"
            )
        self._tensors[name] = new

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def copy(self) -> "ParamStore":
        return ParamStore({k: v.copy() for k, v in self._tensors.items()})

    def as_leaves(self, tape: Tape) -> dict[str, Var]:
        """Record every tensor as a tape leaf; returns name -> Var."""
        return {name: tape.leaf(value) for name, value in self._tensors.items()}


def save_checkpoint(path, params: ParamStore, metadata: Mapping) -> None:
    """Write a JSON checkpoint; float64 values round-trip bit-exactly."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "metadata": dict(metadata),
        "tensors": {
            name: {"shape": list(t.shape), "data": [float(v) for v in t.ravel()]}
            for name, t in params.items()
        },
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def load_checkpoint(path) -> tuple[ParamStore, dict]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ConfigurationError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    store = ParamStore()
    try:
        for name in sorted(payload["tensors"]):
            entry = payload["tensors"][name]
            data = np.asarray(entry["data"], dtype=np.float64)
            if data.shape != (int(np.prod(entry["shape"])),):
                raise ConfigurationError(
                    f"checkpoint {path}: tensor {name!r} has {data.size} values for shape {entry['shape']}"
                )
            if not np.all(np.isfinite(data)):
                raise ConfigurationError(f"checkpoint {path}: tensor {name!r} holds non-finite values")
            store.add(name, data.reshape(entry["shape"]))
        return store, payload["metadata"]
    except KeyError as err:
        raise ConfigurationError(f"checkpoint {path} lacks key {err.args[0]!r}") from None


# -- dense layers -------------------------------------------------------------


def _pairs(d: int) -> list[tuple[int, int]]:
    """Input pairs i <= j in row-major order: the second-order channels."""
    return [(i, j) for i in range(d) for j in range(i, d)]


def _sum(terms: list):
    """Sum left to right from the first term (no 0 start, so -0.0 stays -0.0)."""
    return sum(terms[1:], terms[0])


def mlp_jet(
    weights: Sequence[Array], biases: Sequence[Array], a: Array, activation: str, order: int = 0, saves=None
) -> list:
    """Push the Taylor jet of a dense network at (N, d) inputs ``a``, in numpy.

    Weights are (out, in) and the activation runs between layers but not
    after the last.  Returns the output channels as (N, out) arrays: the
    value; at order >= 1 one first derivative per input; at order 2 one
    second derivative per input pair i <= j, in row-major order.  Affine
    layers map every channel through W (only the value gets the bias) and
    activations apply the chain rule with phi' and phi''.  The first
    layer's first-derivative channels are W0's columns and its
    second-order channels are the scalar 0.

    If ``saves`` is a list, each activation appends what
    :func:`mlp_jet_vjp` reads: its input's derivative channels, the base
    from :func:`activation_value_and_base` and its output channels.
    """
    w = weights[0]
    d = a.shape[1]
    z = [a @ w.T + biases[0]]
    if order >= 1:
        z += [w[:, k] for k in range(d)]
    if order == 2:
        pairs = _pairs(d)
        z += [0.0] * len(pairs)
    for i in range(1, len(weights)):
        phi, base = activation_value_and_base(activation, z[0])
        h = [phi]
        if order >= 1:
            d1, d2, _ = activation_derivatives(activation, base, order)
            zt = z[1 : d + 1]
            h += [d1 * c for c in zt]
            if order == 2 and d2 is None:  # relu: phi'' = 0 almost everywhere
                h += [d1 * c for c in z[d + 1 :]]
            elif order == 2:
                h += [d2 * (zt[p] * zt[q]) + d1 * c for (p, q), c in zip(pairs, z[d + 1 :])]
        if saves is not None:
            saves.append((z[1:], base, h))
        wt = weights[i].T
        z = [h[0] @ wt + biases[i]] + [c @ wt for c in h[1:]]
    if len(weights) == 1:  # no hidden layer: derivative channels are constants
        z[1:] = [np.broadcast_to(c, z[0].shape) for c in z[1:]]
    return z


def mlp_jet_vjp(zbar: list, weights: Sequence[Array], a: Array, saves: list, activation: str, order: int):
    """Reverse sweep of :func:`mlp_jet`: (weight adjoints, bias adjoints, adjoint of ``a``).

    ``zbar`` holds one adjoint per output channel and ``saves`` what the
    forward pass saved.  Each activation recomputes phi' to phi''' up to
    order + 1 from its base; relu's vanish beyond phi'.
    """
    d = a.shape[1]
    pairs = _pairs(d) if order == 2 else []
    w_grads: list = [None] * len(weights)
    b_grads: list = [None] * len(weights)
    for i in range(len(weights) - 1, 0, -1):
        zd, base, h = saves[i - 1]
        w_grads[i] = _sum([zb.T @ c for zb, c in zip(zbar, h)])
        b_grads[i] = zbar[0].sum(axis=0)
        hbar = [zb @ weights[i] for zb in zbar]
        d1, d2, d3 = activation_derivatives(activation, base, order + 1)
        zbar = [c * d1 for c in hbar]
        if order == 0 or d2 is None:
            continue
        zt, tbar, sbar = zd[:d], hbar[1 : d + 1], hbar[d + 1 :]
        first = _sum([tb * c for tb, c in zip(tbar, zt)])
        if order == 1:
            zbar[0] += first * d2
            continue
        zbar[0] += d2 * _sum([first] + [sb * c for sb, c in zip(sbar, zd[d:])])
        zbar[0] += d3 * _sum([sb * (zt[p] * zt[q]) for (p, q), sb in zip(pairs, sbar)])
        for k in range(d):
            terms = [
                2.0 * sb * zt[k] if p == q else sb * zt[q if p == k else p]
                for (p, q), sb in zip(pairs, sbar)
                if k in (p, q)
            ]
            zbar[1 + k] += d2 * _sum(terms)
    # the first layer's inputs: a, unit vectors for the first derivatives
    # and zero second-order channels
    w_grads[0] = zbar[0].T @ a
    for k in range(d if order else 0):
        w_grads[0][:, k] += zbar[1 + k].sum(axis=0)
    b_grads[0] = zbar[0].sum(axis=0)
    return w_grads, b_grads, zbar[0] @ weights[0]


def forward_mlp(params: Mapping, x, layer_widths: Sequence[int], activation: str, prefix: str = ""):
    """Run a dense network ``layer_widths[0] -> ... -> layer_widths[-1]``.

    Weights are looked up as ``{prefix}W{i}`` with shape (out, in) and
    biases as ``{prefix}b{i}``.  This is order 0 of :func:`mlp_jet`, on
    (N, in) or (in,) inputs.  Works on the tape (Var params/input) and on
    plain arrays alike; in tape mode the whole network is one coarse node
    whose backward is :func:`mlp_jet_vjp`, which keeps training fast.
    """
    if activation not in ACTIVATIONS:
        raise ConfigurationError(f"unknown activation: {activation!r}")
    n_layers = len(layer_widths) - 1
    if n_layers < 1:
        raise ConfigurationError("layer_widths must describe at least one layer")
    xv = x.value if _is_var(x) else _const(x)
    if xv.ndim not in (1, 2):
        raise ConfigurationError(f"forward_mlp expects 1-D/2-D input, got {xv.ndim}-D")
    if xv.shape[-1] != layer_widths[0]:
        raise ConfigurationError(
            f"input width {xv.shape[-1]} != expected {layer_widths[0]}"
        )
    weights = [params[f"{prefix}W{i}"] for i in range(n_layers)]
    biases = [params[f"{prefix}b{i}"] for i in range(n_layers)]
    w_vals = [w.value if _is_var(w) else _const(w) for w in weights]
    b_vals = [b.value if _is_var(b) else _const(b) for b in biases]
    for i in range(n_layers):
        expected = (layer_widths[i + 1], layer_widths[i])
        if w_vals[i].shape != expected:
            raise ConfigurationError(
                f"{prefix}W{i} has shape {w_vals[i].shape}, expected {expected}"
            )
        if b_vals[i].shape != (layer_widths[i + 1],):
            raise ConfigurationError(
                f"{prefix}b{i} has shape {b_vals[i].shape}, expected {(layer_widths[i + 1],)}"
            )
    inputs = [x, *weights, *biases]
    is_var = [_is_var(v) for v in inputs]

    lifted = xv.ndim == 1
    h = xv[None, :] if lifted else xv
    saves = [] if any(is_var) else None
    out = mlp_jet(w_vals, b_vals, h, activation, 0, saves)[0]
    if saves is None:
        return out[0] if lifted else out

    def multi_vjp(g: Array) -> list[Array]:
        gb = g[None, :] if lifted else g
        w_grads, b_grads, xbar = mlp_jet_vjp([gb], w_vals, h, saves, activation, 0)
        grads = [xbar[0] if lifted else xbar, *w_grads, *b_grads]
        return [gr for gr, var in zip(grads, is_var) if var]

    parents = [v for v, var in zip(inputs, is_var) if var]
    return custom_node(parents[0].tape, out[0] if lifted else out, parents, multi_vjp)


def init_mlp_params(
    store: ParamStore,
    layer_widths: Sequence[int],
    rng: np.random.Generator,
    prefix: str = "",
) -> None:
    """Glorot-uniform weights (+/- sqrt(6/(fan_in+fan_out))), zero biases."""
    for i in range(len(layer_widths) - 1):
        fan_in, fan_out = layer_widths[i], layer_widths[i + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        store.add(f"{prefix}W{i}", rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        store.add(f"{prefix}b{i}", np.zeros(fan_out))


# -- Adam ---------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam moment buffers plus the current learning rate."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.lr < 0.0:
            raise ConfigurationError("learning rate must be >= 0")

    @classmethod
    def for_params(cls, params: ParamStore, lr: float, **kwargs) -> "AdamState":
        state = cls(lr=lr, **kwargs)
        for name, value in params.items():
            state.m[name] = np.zeros_like(value)
            state.v[name] = np.zeros_like(value)
        return state


def adam_step(params: ParamStore, grads: Mapping[str, Array], state: AdamState) -> None:
    """One bias-corrected Adam update, in place.

    Aborts (raising :class:`TrainingDivergedError`) before touching any
    buffer if a gradient is non-finite.
    """
    names = params.names()
    for name in names:
        if not np.all(np.isfinite(grads[name])):
            raise TrainingDivergedError(f"non-finite gradient for {name!r} at t={state.t + 1}")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for name in names:
        g = grads[name]
        m = state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        v = state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        step = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        params[name] = params[name] - step
