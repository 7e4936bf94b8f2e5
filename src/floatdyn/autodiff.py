"""Reverse-mode automatic differentiation on array-valued tapes.

A :class:`Tape` records every operation applied to :class:`Var` handles,
each holding its node's value; :func:`backward` replays the record once in
reverse to accumulate exact adjoints.  Each node keeps one backward
callback, which maps the node's adjoint to one adjoint per parent;
:func:`record` adds a node whose parents are the Var operands of an
operation.  A callback captures arrays and shapes, never a Var, so a tape
is freed by reference counting.  Adam lives here too, on a
:class:`ParamStore`, a dict whose layout the model checks, and so does the
one dense network, on weight and bias lists (parameter names are the model's):
:func:`mlp_jet` pushes its value and, in Taylor mode, its first and
second input-derivatives over d inputs through it in numpy, and
:func:`mlp_jet_vjp` is its reverse sweep.  :func:`forward_mlp` is order 0
of that jet and ``model.stream_eval`` order 1 or 2 at d = 2; on the tape
each is one :func:`jet_node`.  So the rest of the package can
differentiate any scalar loss with respect to all network parameters
without an external ML framework.

The math functions in this module (``sqrt``, ``exp``, ``softplus``, ...)
dispatch on their argument: ``Var`` inputs are recorded on the tape, plain
arrays and floats fall through to numpy.  Formulas written against them
therefore run both in recording mode (training) and in raw numpy mode
(rollouts, evaluation), from a single source.  Numpy mode is plain arrays
in, plain arrays out, and no tape touched: each op tells it apart with one
type test (``Var in map(type, operands)`` for several operands) and then
runs only its ufuncs, building no operand lists on the way.

All numerics are float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

Array = np.ndarray


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

    Node ``i`` stores its value, its parent indices and one backward
    callback that maps the node's adjoint to one adjoint per parent, in
    parent order; leaves store ``None``.  A callback holds arrays and
    shapes, never a ``Var``: a Var holds its tape, so the tape would
    become a reference cycle that only the cyclic garbage collector
    frees.  Construction order is topological order, so a single reverse
    sweep yields adjoints ``d(root)/d(node)`` for every node.
    """

    __slots__ = ("values", "parents", "vjps", "adjoints")

    def __init__(self) -> None:
        self.values: list[Array] = []
        self.parents: list[tuple[int, ...]] = []
        self.vjps: list[Callable[[Array], Sequence[Array]] | None] = []
        self.adjoints: list[Array | None] = []

    def __len__(self) -> int:
        return len(self.values)

    def leaf(self, value) -> "Var":
        """Record an input node (parameter or constant of interest)."""
        return self._record(_const(value), (), None)

    def _record(self, value: Array, parents: tuple[int, ...], vjp) -> "Var":
        self.values.append(value)
        self.parents.append(parents)
        self.vjps.append(vjp)
        return Var(self, len(self.values) - 1, value)

    def adjoint(self, var: "Var") -> Array:
        """Adjoint of ``var`` after :func:`backward`; exact zero if unreachable."""
        if not self.adjoints:
            raise UsageError("backward() has not been run on this tape")
        a = self.adjoints[var.idx]
        if a is None:
            return np.zeros_like(self.values[var.idx])
        return a


def record(value: Array, operands: Sequence, vjp) -> "Var":
    """Record ``value`` as a node whose parents are the Vars among ``operands``.

    ``vjp(g)`` returns one adjoint per parent, in operand order.
    """
    parents = [v for v in operands if isinstance(v, Var)]
    tape = parents[0].tape
    if any(p.tape is not tape for p in parents):
        raise UsageError("cannot mix Vars from different tapes")
    # from a list: tuple(generator) allocates a spare tuple that raises the
    # collector's allocation count, and so the collection rate, every time
    return tape._record(value, tuple([p.idx for p in parents]), vjp)


# op -> (numpy op, adjoint rule for x, for y); a rule maps (adjoint, x value,
# y value) to that operand's adjoint before it is reduced to the operand's shape
_BINARY = {
    "add": (np.add, lambda g, a, b: g, lambda g, a, b: g),
    "sub": (np.subtract, lambda g, a, b: g, lambda g, a, b: -g),
    "mul": (np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a),
    "div": (np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b)),
}


def _binary(x, y, op: str) -> "Var":
    """Record ``x op y`` where x or y is a Var; a constant operand gets no adjoint."""
    fn, dx, dy = _BINARY[op]
    a, b = _value(x), _value(y)
    dx = dx if isinstance(x, Var) else None
    dy = dy if isinstance(y, Var) else None
    return record(
        fn(a, b),
        (x, y),
        lambda g, a=a, b=b, dx=dx, dy=dy: [
            _unbroadcast(d(g, a, b), v.shape) for d, v in ((dx, a), (dy, b)) if d is not None
        ],
    )


class Var:
    """Handle to one tape node, holding its value.  Supports numpy-style arithmetic."""

    __slots__ = ("tape", "idx", "value")
    __array_ufunc__ = None  # force numpy to defer to our reflected operators

    def __init__(self, tape: Tape, idx: int, value: Array) -> None:
        self.tape = tape
        self.idx = idx
        self.value = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Var(idx={self.idx}, value={self.value!r})"

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        return _binary(self, other, "add")

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(self, other, "sub")

    def __rsub__(self, other):
        return _binary(other, self, "sub")

    def __mul__(self, other):
        return _binary(self, other, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary(self, other, "div")

    def __rtruediv__(self, other):
        return _binary(other, self, "div")

    def __neg__(self):
        return self.tape._record(-self.value, (self.idx,), lambda g: (-g,))

    def __pow__(self, p):
        if isinstance(p, Var):
            raise UsageError("only constant exponents are supported")
        p = float(p)
        a = self.value
        return self.tape._record(a**p, (self.idx,), lambda g, a=a, p=p: (g * p * a ** (p - 1.0),))


def _value(x) -> Array:
    return x.value if isinstance(x, Var) else _const(x)


# -- elementwise functions (dispatch Var / numpy) --------------------------


def _sigmoid_value(z: Array) -> Array:
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0.0, 1.0 / d, e / d)


def _softplus_value(z: Array) -> Array:
    # overflow-safe form: max(z, 0) + log1p(exp(-|z|))
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def sigmoid(x):
    if isinstance(x, Var):
        y = _sigmoid_value(x.value)
        return x.tape._record(y, (x.idx,), lambda g, y=y: (g * y * (1.0 - y),))
    return _sigmoid_value(_const(x))


def softplus(x):
    if isinstance(x, Var):
        z = x.value
        y = _softplus_value(z)
        s = _sigmoid_value(z)
        return x.tape._record(y, (x.idx,), lambda g, s=s: (g * s,))
    return _softplus_value(_const(x))


def activation_value_and_base(name: str, z: Array) -> tuple[Array, Array]:
    """phi(z) plus the cached quantity its derivatives are built from."""
    if name == "tanh":
        t = np.tanh(z)
        return t, t
    if name == "relu":  # the base is the step 1[z > 0], 0 at z = 0
        return np.maximum(z, 0.0), (z > 0.0).astype(np.float64)
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
    if name == "relu":
        return base, None, None
    raise ConfigurationError(f"unknown activation: {name!r}")


def exp(x):
    if isinstance(x, Var):
        y = np.exp(x.value)
        return x.tape._record(y, (x.idx,), lambda g, y=y: (g * y,))
    return np.exp(x)


def sqrt(x):
    if isinstance(x, Var):
        y = np.sqrt(x.value)
        return x.tape._record(y, (x.idx,), lambda g, y=y: (g / (2.0 * y),))
    return np.sqrt(x)


# -- structural ops ---------------------------------------------------------


def vsum(x):
    """Sum all entries to a scalar."""
    if isinstance(x, Var):
        a = x.value
        out = _const(a.sum())
        return x.tape._record(out, (x.idx,), lambda g, s=a.shape: (np.broadcast_to(g, s),))
    return _const(np.sum(x))


def vmean(x):
    """Mean of all entries as a scalar."""
    if isinstance(x, Var):
        a = x.value
        n = a.size
        out = _const(a.mean())
        return x.tape._record(out, (x.idx,), lambda g, s=a.shape, n=n: (np.broadcast_to(g / n, s),))
    return _const(np.mean(x))


def take_col(x, j: int):
    """Entry ``j`` of the last axis, ``x[..., j]``; a plain array gives its
    float64 column and touches no tape."""
    if not isinstance(x, Var):
        return np.asarray(x, dtype=np.float64)[..., j]

    def vjp(g, shape=x.shape, j=j):
        out = np.zeros(shape)
        out[..., j] = g
        return (out,)

    return x.tape._record(x.value[..., j].copy(), (x.idx,), vjp)


def stack_last(parts: Sequence):
    """Stack K parts of one shape S into an (*S, K) array along a new last axis.

    Parts may mix Vars with plain arrays and floats; constants are
    broadcast to the common shape, which every Var part must have.
    Without a Var part the stack is a plain float64 array.
    """
    tape_mode = Var in map(type, parts)
    vals = [_value(p) for p in parts] if tape_mode else parts
    shape = np.broadcast(*vals).shape
    out = np.empty((*shape, len(vals)))
    for k, v in enumerate(vals):
        out[..., k] = v
    if not tape_mode:
        return out
    ks = [k for k, p in enumerate(parts) if isinstance(p, Var)]
    if any(parts[k].shape != shape for k in ks):
        raise ConfigurationError("stack_last parts must share a shape")
    return record(out, parts, lambda g, ks=ks: [g[..., k] for k in ks])


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
        if g is None or tape.vjps[i] is None:
            continue
        for p, contrib in zip(tape.parents[i], tape.vjps[i](g)):
            adj[p] = contrib if adj[p] is None else adj[p] + contrib
    tape.adjoints = adj


def parameter_gradients(tape: Tape, leaves: Mapping[str, Var]) -> dict[str, Array]:
    """Gradient map for named leaves after :func:`backward`.

    Leaves the root never touched get exact zeros.
    """
    return {name: tape.adjoint(var) for name, var in leaves.items()}


# -- parameter storage and checkpoints ---------------------------------------

CHECKPOINT_FORMAT = "floatdyn-checkpoint-v1"


class ParamStore(dict):
    """Named float64 parameter tensors, a dict that the constructor fills with
    float64 copies.  It checks no layout: ``model.DynamicsModel`` checks the
    names and shapes once, when the model is built."""

    def __init__(self, tensors: Mapping[str, Array] | None = None) -> None:
        super().__init__({name: np.array(value, dtype=np.float64) for name, value in (tensors or {}).items()})

    def names(self) -> list[str]:
        return list(self)

    def copy(self) -> "ParamStore":
        """A store of copies, sharing no array with this one."""
        return ParamStore(self)

    def as_leaves(self, tape: Tape) -> dict[str, Var]:
        """Record every tensor as a tape leaf; returns name -> Var."""
        return {name: tape.leaf(value) for name, value in self.items()}


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
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"checkpoint {path} is not JSON ({err})") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ConfigurationError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    store = ParamStore()
    try:
        tensors, metadata = payload["tensors"], payload["metadata"]
        if not isinstance(metadata, dict) or not isinstance(tensors, dict):
            raise ConfigurationError(f"checkpoint {path}: 'tensors' and 'metadata' must be JSON objects")
        for name in sorted(tensors):
            entry = tensors[name]
            if not isinstance(entry, dict):
                raise ConfigurationError(f"checkpoint {path}: tensor {name!r} is not a {{shape, data}} object")
            shape = entry["shape"]
            if not (isinstance(shape, list) and all(isinstance(n, int) and n >= 0 for n in shape)):
                raise ConfigurationError(
                    f"checkpoint {path}: tensor {name!r} shape {shape!r} is not a list of sizes"
                )
            try:
                data = np.asarray(entry["data"], dtype=np.float64)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"checkpoint {path}: tensor {name!r} data is not a list of numbers"
                ) from None
            if data.shape != (int(np.prod(shape)),):
                raise ConfigurationError(
                    f"checkpoint {path}: tensor {name!r} has {data.size} values for shape {shape}"
                )
            if not np.all(np.isfinite(data)):
                raise ConfigurationError(f"checkpoint {path}: tensor {name!r} holds non-finite values")
            store[name] = data.reshape(shape)
        return store, metadata
    except KeyError as err:
        raise ConfigurationError(f"checkpoint {path} lacks key {err.args[0]!r}") from None


# -- dense layers -------------------------------------------------------------


def _pairs(d: int) -> list[tuple[int, int]]:
    """Input pairs i <= j in row-major order: the second-order channels."""
    return [(i, j) for i in range(d) for j in range(i, d)]


def _sum(terms: list):
    """Sum left to right from the first term (no 0 start, so -0.0 stays -0.0)."""
    return sum(terms[1:], terms[0])


def _activation_channel(zd: list, k: int, d1: Array, d2, pairs: list) -> Array:
    """Derivative channel ``k`` of an activation's output, from its input's
    derivative channels ``zd``: d1*t for a first-order channel t and
    d2*(t_p*t_q) + d1*s for the second-order channel s of pair (p, q), or
    d1*s where phi'' vanishes (``d2`` None).  The reverse sweep and the
    order-2 forward pass build channels here, and the order-1 forward pass
    writes the same d1*t inline, so rebuilt channels agree bit for bit."""
    d = len(zd) - len(pairs)
    if k < d or d2 is None:
        return d1 * zd[k]
    p, q = pairs[k - d]
    return d2 * (zd[p] * zd[q]) + d1 * zd[k]


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
    from :func:`activation_value_and_base` and phi, which for tanh is the
    base itself.  Its output's derivative channels are not saved: the
    reverse sweep rebuilds them from the first two.
    """
    w = weights[0]
    d = a.shape[1]
    pairs = _pairs(d) if order == 2 else []
    z = [a @ w.T + biases[0]]
    if order >= 1:
        z += list(w.T)  # W0's columns
    z += [0.0] * len(pairs)
    for i in range(1, len(weights)):
        phi, base = activation_value_and_base(activation, z[0])
        zd = z[1:]
        if saves is not None:
            saves.append((zd, base, phi))
        wt = weights[i].T
        z = [phi @ wt + biases[i]]
        if order == 1:  # first-order channels only: d1*t
            d1 = activation_derivatives(activation, base, 1)[0]
            z += [(d1 * t) @ wt for t in zd]
        elif order == 2:
            d1, d2, _ = activation_derivatives(activation, base, 2)
            z += [_activation_channel(zd, k, d1, d2, pairs) @ wt for k in range(len(zd))]
    if len(weights) == 1:  # no hidden layer: derivative channels are constants
        z[1:] = [np.broadcast_to(c, z[0].shape) for c in z[1:]]
    return z


def mlp_jet_vjp(zbar: list, weights: Sequence[Array], a: Array, saves: list, activation: str, order: int):
    """Reverse sweep of :func:`mlp_jet`: (weight adjoints, bias adjoints, adjoint of ``a``).

    ``zbar`` holds one adjoint per output channel and ``saves`` what the
    forward pass saved.  Each activation recomputes phi' to phi''' up to
    order + 1 from its base; relu's vanish beyond phi'.  The next layer's
    weight adjoint is a running sum over the activation's output channels
    in channel order, and each derivative channel is rebuilt from the
    saved input channels just before its term is added, so only one
    rebuilt channel is alive at a time.
    """
    d = a.shape[1]
    pairs = _pairs(d) if order == 2 else []
    w_grads: list = [None] * len(weights)
    b_grads: list = [None] * len(weights)
    for i in range(len(weights) - 1, 0, -1):
        zd, base, phi = saves[i - 1]
        d1, d2, d3 = activation_derivatives(activation, base, order + 1)
        w_grads[i] = zbar[0].T @ phi
        for k, zb in enumerate(zbar[1:]):
            w_grads[i] += zb.T @ _activation_channel(zd, k, d1, d2, pairs)
        b_grads[i] = zbar[0].sum(axis=0)
        hbar = [zb @ weights[i] for zb in zbar]
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


def jet_node(positions: Sequence, weights: Sequence, biases: Sequence, activation: str, order: int = 0):
    """:func:`mlp_jet` at ``positions``; one tape node if any operand is a Var.

    ``positions`` holds the (N, d) or (d,) input, or its d columns of
    shape (N,) or (); constants are float64 arrays, and columns may also
    be floats.  Without a Var operand the output channels come back as
    numpy arrays, each (N, out), or (out,) for one point, and no tape is
    touched.  Otherwise they are recorded side by side as one node valued
    (N, C * out) or (C * out,), whose backward is :func:`mlp_jet_vjp`.
    """
    operands = (*positions, *weights, *biases)
    n_pos, n_layers = len(positions), len(weights)
    saves = None
    if Var in map(type, operands):
        is_var = [isinstance(v, Var) for v in operands]
        vals = [v.value if var else v for v, var in zip(operands, is_var)]
        positions, weights, biases = vals[:n_pos], vals[n_pos : n_pos + n_layers], vals[n_pos + n_layers :]
        saves = []
    a = positions[0] if n_pos == 1 else stack_last(positions)
    lifted = a.ndim == 1
    if lifted:
        a = a[None, :]
    z = mlp_jet(weights, biases, a, activation, order, saves)
    if saves is None:
        return [c[0] for c in z] if lifted else z
    value = np.concatenate(z, axis=-1)

    def vjp(
        g, w_vals=weights, a=a, saves=saves, activation=activation, order=order,
        width=z[0].shape[1], lifted=lifted, n_pos=n_pos, is_var=is_var,
    ):
        gb = g[None, :] if lifted else g
        zbar = [gb[:, k : k + width] for k in range(0, gb.shape[1], width)]
        w_grads, b_grads, abar = mlp_jet_vjp(zbar, w_vals, a, saves, activation, order)
        abar = abar[0] if lifted else abar
        grads = [abar] if n_pos == 1 else list(abar.T)
        return [gr for gr, var in zip([*grads, *w_grads, *b_grads], is_var) if var]

    return record(value[0] if lifted else value, operands, vjp)


def forward_mlp(weights: Sequence, biases: Sequence, x, activation: str):
    """Order 0 of :func:`jet_node`: the dense network's value at (N, in) or (in,) inputs.

    Weights are (out, in), one per layer; their shapes are the caller's to
    check.  On the tape (Var weights or input) the whole network is one
    node, which keeps training fast; plain arrays give a plain array.
    """
    out = jet_node([x], weights, biases, activation)
    return out if isinstance(out, Var) else out[0]


# -- Adam ---------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moment buffers plus the current learning rate; the decay rates
    and the denominator guard are the ``ADAM_*`` constants."""

    lr: float
    t: int
    m: dict[str, Array]
    v: dict[str, Array]

    def __post_init__(self) -> None:
        if not 0.0 <= self.lr < np.inf:
            raise ConfigurationError(f"lr must be finite and >= 0, got {self.lr}")

    @classmethod
    def for_params(cls, params: ParamStore, lr: float) -> "AdamState":
        zeros = lambda: {name: np.zeros_like(value) for name, value in params.items()}
        return cls(lr=lr, t=0, m=zeros(), v=zeros())


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
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name in names:
        g = grads[name]
        m = state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        v = state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        step = state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        params[name] = params[name] - step
