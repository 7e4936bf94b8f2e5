"""Learnable floating-body dynamics.

Two families share one state-derivative contract f(s, t):

* the structured model: a coefficient network mapping the
  rotation-invariant features (r, sigma) to capped hydrodynamic
  coefficients, plus a streamfunction network whose perpendicular
  gradient is the background flow, both plugged into the analytic
  equations of motion from :mod:`floatdyn.physics`;
* a black-box baseline that regresses accelerations directly from the
  raw state.

Ablation variants reuse the structured assembly with pieces switched
off.  ``stream_eval`` pushes psi with its first and second
input-derivatives through the streamfunction network in one numpy pass
(Taylor mode).  On the tape that pass is one node with a hand-written
backward, so the flow, its divergence-free construction and the Hessian
penalty are all differentiable with respect to both the parameters and
the positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import physics as ph
from .autodiff import ConfigurationError

Array = np.ndarray

VARIANTS = (
    "fhnn",
    "neural_ode",
    "no_added_mass",
    "no_linear_drag",
    "no_flow_field",
    "shallow",
    "relu",
)

STRUCTURED_VARIANTS = tuple(v for v in VARIANTS if v != "neural_ode")

DIVERGENCE_LIMIT = 1e6  # any rollout component beyond this is flagged diverged

COEFF_NAMES = ("m_ax", "m_ay", "c_q", "c_l")


@dataclass(frozen=True)
class CapConfig:
    """Per-coefficient soft upper caps."""

    m_ax: float = 60.0
    m_ay: float = 60.0
    c_q: float = 2.0
    c_l: float = 10.0

    def __post_init__(self) -> None:
        if min(self.m_ax, self.m_ay, self.c_q, self.c_l) <= 0.0:
            raise ConfigurationError("all caps must be > 0")

    def as_array(self) -> Array:
        return np.array([self.m_ax, self.m_ay, self.c_q, self.c_l])


@dataclass(frozen=True)
class ModelDescriptor:
    """Variant name, layer widths, activation and init seed."""

    variant: str
    hidden: tuple[int, ...] = (64, 64)
    activation: str = "tanh"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant: {self.variant!r}")
        if self.activation not in ad.ACTIVATIONS:
            raise ConfigurationError(f"unknown activation: {self.activation!r}")
        if self.variant == "relu" and self.activation != "relu":
            raise ConfigurationError("the relu variant must use the relu activation")
        if self.variant != "relu" and self.activation == "relu":
            raise ConfigurationError("only the relu variant uses the relu activation")
        if self.variant == "shallow" and self.hidden != (16,):
            raise ConfigurationError("the shallow variant uses one hidden layer of width 16")

    @property
    def coeff_widths(self) -> tuple[int, ...]:
        return (2, *self.hidden, 4)

    @property
    def stream_widths(self) -> tuple[int, ...]:
        return (2, *self.hidden, 1)

    @property
    def node_widths(self) -> tuple[int, ...]:
        return (4, *self.hidden, 2)

    def to_metadata(self) -> dict:
        return {
            "variant": self.variant,
            "hidden": list(self.hidden),
            "activation": self.activation,
            "seed": self.seed,
        }

    @classmethod
    def from_metadata(cls, meta: Mapping) -> "ModelDescriptor":
        return cls(
            variant=meta["variant"],
            hidden=tuple(meta["hidden"]),
            activation=meta["activation"],
            seed=meta["seed"],
        )


def make_descriptor(variant: str, seed: int = 0) -> ModelDescriptor:
    """Descriptor with the variant's canonical architecture."""
    if variant == "shallow":
        return ModelDescriptor(variant, hidden=(16,), seed=seed)
    if variant == "relu":
        return ModelDescriptor(variant, activation="relu", seed=seed)
    return ModelDescriptor(variant, seed=seed)


def init_params(desc: ModelDescriptor) -> ad.ParamStore:
    """Seeded Glorot-uniform weights, zero biases, fixed draw order."""
    rng = np.random.default_rng(desc.seed)
    store = ad.ParamStore()
    if desc.variant == "neural_ode":
        ad.init_mlp_params(store, desc.node_widths, rng, prefix="node.")
    else:
        ad.init_mlp_params(store, desc.coeff_widths, rng, prefix="coeff.")
        ad.init_mlp_params(store, desc.stream_widths, rng, prefix="stream.")
    return store


# -- coefficient network --------------------------------------------------------


def cap_map(z, caps: Array):
    """Squash raw outputs into (0, C) per coefficient: C*sigmoid(softplus(z)/C)."""
    return caps * ad.sigmoid(ad.softplus(z) / caps)


def coefficient_net(params: Mapping, features, caps: CapConfig, desc: ModelDescriptor):
    """Capped coefficients from (r, sigma) features, shape (..., 4)."""
    raw = ad.forward_mlp(params, features, desc.coeff_widths, desc.activation, prefix="coeff.")
    return cap_map(raw, caps.as_array())


# -- streamfunction network -------------------------------------------------------


@dataclass
class StreamEval:
    """psi with its input gradient and (symmetric) Hessian channels."""

    psi: object
    gx: object
    gy: object
    hxx: object = None
    hxy: object = None
    hyy: object = None

    def velocity(self):
        """u = grad-perp psi = (-d psi/dy, d psi/dx)."""
        return ph.Vec2(-self.gy, self.gx)

    def hessian_frobenius_sq(self):
        return self.hxx * self.hxx + 2.0 * (self.hxy * self.hxy) + self.hyy * self.hyy


def _stream_jet(weights, biases, a, activation: str, order: int, saves=None) -> list:
    """Push the jet of psi through the stream MLP in numpy, layer by layer.

    ``a`` holds (N, 2) positions.  Each layer carries the channels
    (value, d/dx, d/dy) and, at order 2, (d2/dx2, d2/dxdy, d2/dy2) as
    (N, width) arrays: affine layers map every channel through W (only the
    value gets the bias), and activations apply the chain rule with phi'
    and phi''.  The first layer's d/dx and d/dy channels are W0's columns,
    and its second-order channels are zero.  Returns the output columns
    (psi, gx, gy[, hxx, hxy, hyy]).

    If ``saves`` is a list, one more activation derivative is computed and
    each activation appends what the reverse sweep reads: the
    pre-activation derivative channels, phi', phi'', phi''' and its output
    channels.
    """
    w = weights[0]
    z = [a @ w.T + biases[0], w[:, 0], w[:, 1]]
    if order == 2:
        z += [0.0, 0.0, 0.0]
    deriv_order = order + 1 if saves is not None else order
    for i in range(1, len(weights)):
        phi, base = ad.activation_value_and_base(activation, z[0])
        d1, d2, d3 = ad.activation_derivatives(activation, base, deriv_order)
        zx, zy = z[1], z[2]
        h = [phi, d1 * zx, d1 * zy]
        if order == 2:
            zxx, zxy, zyy = z[3:]
            if d2 is None:  # relu: phi'' = 0 almost everywhere
                h += [d1 * zxx, d1 * zxy, d1 * zyy]
            else:
                h += [
                    d2 * (zx * zx) + d1 * zxx,
                    d2 * (zx * zy) + d1 * zxy,
                    d2 * (zy * zy) + d1 * zyy,
                ]
        if saves is not None:
            saves.append((z[1:], d1, d2, d3, h))
        wt = weights[i].T
        z = [h[0] @ wt + biases[i]] + [c @ wt for c in h[1:]]
    if len(weights) == 1:  # no hidden layer: derivative channels are constants
        z = [np.broadcast_to(c, z[0].shape) for c in z]
    return [c[:, 0] for c in z]


def _activation_vjp(hbar: list, zd: list, d1, d2, d3) -> list:
    """Adjoints of an activation's input channels from its output adjoints.

    ``zd`` holds the input's derivative channels; ``d2`` and ``d3`` are
    None where phi'' and phi''' vanish (relu).
    """
    vbar, xbar, ybar = hbar[:3]
    zx, zy = zd[:2]
    out = [vbar * d1, xbar * d1, ybar * d1]
    if len(hbar) == 3:
        if d2 is not None:
            out[0] += (xbar * zx + ybar * zy) * d2
        return out
    xxbar, xybar, yybar = hbar[3:]
    zxx, zxy, zyy = zd[2:]
    out += [xxbar * d1, xybar * d1, yybar * d1]
    if d2 is not None:
        out[0] += d2 * (xbar * zx + ybar * zy + xxbar * zxx + xybar * zxy + yybar * zyy)
        out[0] += d3 * (xxbar * (zx * zx) + xybar * (zx * zy) + yybar * (zy * zy))
        out[1] += d2 * (2.0 * xxbar * zx + xybar * zy)
        out[2] += d2 * (xybar * zx + 2.0 * yybar * zy)
    return out


def stream_eval(params: Mapping, x, y, desc: ModelDescriptor, order: int = 2) -> StreamEval:
    """Evaluate psi with its gradient and, at order 2, its Hessian.

    One numpy pass, :func:`_stream_jet`, pushes the jet through the
    network.  With plain arrays its columns are returned as they are.
    When parameters or positions are Vars the jet is recorded as one tape
    node, valued (N, 3) or (N, 6), whose hand-written backward sweeps the
    saved per-layer values in reverse; each field is a column of that
    node, so parameter gradients of any function of (psi, grad, Hess) are
    available, and so are position gradients at either order.
    """
    if order not in (1, 2):
        raise ConfigurationError("order must be 1 or 2")
    n_layers = len(desc.stream_widths) - 1
    inputs = [x, y]
    inputs += [params[f"stream.W{i}"] for i in range(n_layers)]
    inputs += [params[f"stream.b{i}"] for i in range(n_layers)]
    is_var = [isinstance(v, ad.Var) for v in inputs]
    vals = [v.value if var else v for v, var in zip(inputs, is_var)]
    w_vals, b_vals = vals[2 : 2 + n_layers], vals[2 + n_layers :]
    a = ad.stack_last(vals[:2])
    if a.ndim > 2:
        raise ConfigurationError(f"stream_eval expects scalar or 1-D positions, got {a.ndim - 1}-D")
    lifted = a.ndim == 1
    if lifted:
        a = a[None, :]

    if not any(is_var):
        cols = _stream_jet(w_vals, b_vals, a, desc.activation, order)
        return StreamEval(*[c.reshape(()) for c in cols] if lifted else cols)

    pos_is_var = is_var[0] or is_var[1]
    if pos_is_var and any(np.shape(v) != a.shape[:-1] for v in vals[:2]):
        raise ConfigurationError("Var positions need x and y of one shape")
    saves: list = []
    cols = _stream_jet(w_vals, b_vals, a, desc.activation, order, saves)
    value = np.stack(cols, axis=-1)

    def multi_vjp(g: Array) -> list[Array]:
        gb = g[None, :] if lifted else g
        zbar = [gb[:, k : k + 1] for k in range(gb.shape[1])]
        w_grads = [None] * n_layers
        b_grads = [None] * n_layers
        for i in range(n_layers - 1, 0, -1):
            zd, d1, d2, d3, h = saves[i - 1]
            w_grads[i] = sum(zb.T @ hc for zb, hc in zip(zbar, h))
            b_grads[i] = zbar[0].sum(axis=0)
            zbar = _activation_vjp([zb @ w_vals[i] for zb in zbar], zd, d1, d2, d3)
        # the first layer's inputs: the positions, unit vectors for d/dx
        # and d/dy, and zero second-order channels
        w_grads[0] = zbar[0].T @ a
        w_grads[0][:, 0] += zbar[1].sum(axis=0)
        w_grads[0][:, 1] += zbar[2].sum(axis=0)
        b_grads[0] = zbar[0].sum(axis=0)
        grads = [None, None, *w_grads, *b_grads]
        if pos_is_var:
            abar = zbar[0] @ w_vals[0]
            grads[0], grads[1] = abar[0] if lifted else abar.T
        return [gr for gr, var in zip(grads, is_var) if var]

    parents = [v for v, var in zip(inputs, is_var) if var]
    node = ad.custom_node(parents[0].tape, value[0] if lifted else value, parents, multi_vjp)
    return StreamEval(*(ad.take_col(node, k) for k in range(len(cols))))


# -- derivative assembly ------------------------------------------------------------


@dataclass
class DynamicsModel:
    """A dynamics variant bound to its parameters and physical context.

    ``body`` and ``fluid`` are the known quantities of the system under
    identification (dry mass, known external forcing, fluid constants);
    everything hydrodynamic is either learned (structured variants) or
    absorbed by the black-box baseline.
    """

    descriptor: ModelDescriptor
    params: ad.ParamStore
    caps: CapConfig = field(default_factory=CapConfig)
    body: ph.BodyProperties = field(default_factory=ph.BodyProperties)
    fluid: ph.FluidProperties = field(default_factory=ph.FluidProperties)
    # a known flow substituted for the learned one (plug-in oracles)
    flow_override: object = None

    @classmethod
    def initialize(cls, variant: str, seed: int = 0, **kwargs) -> "DynamicsModel":
        desc = make_descriptor(variant, seed=seed)
        return cls(descriptor=desc, params=init_params(desc), **kwargs)

    def derivative(self, s, t, params: Mapping | None = None, flow_override=None, jet=None):
        """State derivative for (..., 4) states; tape mode when params are Vars.

        ``jet`` is an optional ``stream_eval`` of these params at the positions
        of ``s``; see :func:`fhnn_derivative`.
        """
        p = self.params if params is None else params
        if self.descriptor.variant == "neural_ode":
            return neural_ode_derivative(s, t, p, self.descriptor)
        return fhnn_derivative(
            s,
            t,
            p,
            self.body,
            self.fluid,
            self.descriptor,
            self.caps,
            flow_override=flow_override if flow_override is not None else self.flow_override,
            jet=jet,
        )

    def flow_velocity(self, x, y, params: Mapping | None = None):
        """Learned background flow at points; refuses for flow-less variants."""
        if self.descriptor.variant == "neural_ode":
            raise ad.UsageError("the black-box baseline has no learned flow field")
        if self.descriptor.variant == "no_flow_field":
            raise ad.UsageError("the no_flow_field ablation fixes the flow to zero")
        p = self.params if params is None else params
        return stream_eval(p, x, y, self.descriptor, order=1).velocity()

    def rollout(
        self,
        s0,
        duration,
        step: float = 0.01,
        checkpoints: Sequence[float] | None = None,
        flow_override=None,
    ):
        if flow_override is None:
            return rollout_model(self.derivative, s0, duration, step, checkpoints)
        return rollout_model(
            lambda s, t: self.derivative(s, t, flow_override=flow_override),
            s0,
            duration,
            step,
            checkpoints,
        )

    def save(self, path, extra_metadata: Mapping | None = None) -> None:
        meta = {"descriptor": self.descriptor.to_metadata()}
        if extra_metadata:
            meta.update(extra_metadata)
        ad.save_checkpoint(path, self.params, meta)

    @classmethod
    def load(cls, path, expected_variant: str | None = None, **kwargs) -> "DynamicsModel":
        params, meta = ad.load_checkpoint(path)
        desc = ModelDescriptor.from_metadata(meta["descriptor"])
        if expected_variant is not None and desc.variant != expected_variant:
            raise ConfigurationError(
                f"checkpoint holds variant {desc.variant!r}, expected {expected_variant!r}"
            )
        return cls(descriptor=desc, params=params, **kwargs)


def fhnn_derivative(
    s,
    t,
    params: Mapping,
    body: ph.BodyProperties,
    fluid: ph.FluidProperties,
    desc: ModelDescriptor,
    caps: CapConfig,
    flow_override=None,
    jet: StreamEval | None = None,
):
    """Structured state derivative: the learned flow and the learned capped
    coefficients fed through :func:`floatdyn.physics.body_acceleration`,
    the equations of motion the ground truth also uses.

    ``flow_override`` substitutes a known flow field for the learned one
    (plug-in consistency oracles).  ``jet``, a ``stream_eval`` of
    ``params`` at the positions of ``s`` of either order, replaces the
    learned flow's own order-1 evaluation; it is ignored where the flow is
    overridden or fixed to zero.  The ablations zero their coefficients here.
    """
    x = ad.take_col(s, 0)
    y = ad.take_col(s, 1)
    vx = ad.take_col(s, 2)
    vy = ad.take_col(s, 3)

    if flow_override is not None:
        u = flow_override.velocity(x, y, t)
        ux, uy = u.x, u.y
    elif desc.variant == "no_flow_field":
        ux, uy = 0.0, 0.0
    else:
        ev = stream_eval(params, x, y, desc, order=1) if jet is None else jet
        ux, uy = ev.velocity()

    def coefficients(r, sigma):
        coeffs = coefficient_net(params, ad.stack_last([r, sigma]), caps, desc)
        m_ax, m_ay, c_q, c_l = (ad.take_col(coeffs, j) for j in range(4))
        if desc.variant == "no_added_mass":
            m_ax = m_ay = 0.0
        if desc.variant == "no_linear_drag":
            c_l = 0.0
        return m_ax, m_ay, c_q, c_l

    ax, ay = ph.body_acceleration(ph.State(x, y, vx, vy), t, ux, uy, coefficients, body, fluid)
    return ad.stack_last([vx, vy, ax, ay])


def neural_ode_derivative(s, t, params: Mapping, desc: ModelDescriptor):
    """Black-box baseline: an MLP maps the raw state to (ax, ay).

    The kinematic half of the derivative is kept exact so the comparison
    against the structured model isolates force modeling.
    """
    acc = ad.forward_mlp(params, s, desc.node_widths, desc.activation, prefix="node.")
    vx = ad.take_col(s, 2)
    vy = ad.take_col(s, 3)
    return ad.stack_last([vx, vy, ad.take_col(acc, 0), ad.take_col(acc, 1)])


# -- rollouts -----------------------------------------------------------------------


@dataclass
class Rollout:
    """Model trajectory sampled at requested checkpoint times.

    Positions after a divergence (any state component beyond
    DIVERGENCE_LIMIT, or non-finite) are frozen at the last healthy state
    and flagged, so downstream metrics can report infinities instead of
    crashing.
    """

    times: Array  # (C,)
    states: Array  # (C, ..., 4)
    diverged: Array  # (...,) bool
    diverged_at: Array  # (...,) first bad time, nan if healthy


def rollout_model(
    derivative_fn,
    s0,
    duration: float,
    step: float = 0.01,
    checkpoints: Sequence[float] | None = None,
) -> Rollout:
    """RK4 rollout of a learned derivative, sampled at checkpoint seconds.

    ``s0`` may be a single state (4,) or a batch (N, 4); batching shares
    the integration loop across trajectories.
    """
    s = np.asarray(s0, dtype=np.float64).copy()
    single = s.ndim == 1
    if single:
        s = s[None, :]
    if duration < 0.0:
        raise ConfigurationError("duration must be >= 0")
    if checkpoints is None:
        checkpoints = [duration]
    cps = np.asarray(sorted(float(c) for c in checkpoints))
    if len(cps) and (cps[0] < 0.0 or cps[-1] > duration + 1e-12):
        raise ConfigurationError("checkpoints must lie inside [0, duration]")
    steps_per = np.rint(cps / step).astype(int)
    if not np.allclose(steps_per * step, cps, rtol=0.0, atol=1e-9):
        raise ConfigurationError("rollout step must divide every checkpoint time")

    n_steps = int(round(duration / step)) if duration > 0 else 0
    diverged = np.zeros(s.shape[0], dtype=bool)
    diverged_at = np.full(s.shape[0], np.nan)
    samples = {}
    if 0 in steps_per:
        samples[0] = s.copy()
    with np.errstate(all="ignore"):
        for i in range(n_steps):
            t = i * step
            # inline RK4: rows are independent, so a blowing-up row cannot
            # poison its neighbours; flagged rows stay frozen via np.where
            k1 = derivative_fn(s, t)
            k2 = derivative_fn(s + (0.5 * step) * k1, t + 0.5 * step)
            k3 = derivative_fn(s + (0.5 * step) * k2, t + 0.5 * step)
            k4 = derivative_fn(s + step * k3, t + step)
            proposal = s + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            bad = ~np.all(np.isfinite(proposal), axis=-1) | np.any(
                np.abs(proposal) > DIVERGENCE_LIMIT, axis=-1
            )
            newly = bad & ~diverged
            diverged_at[newly] = t + step
            diverged |= bad
            s = np.where(diverged[:, None], s, proposal)
            if (i + 1) in steps_per:
                samples[i + 1] = s.copy()
    states = np.stack([samples[k] for k in steps_per], axis=0)
    if single:
        states = states[:, 0, :]
        return Rollout(cps, states, diverged[0], diverged_at[0])
    return Rollout(cps, states, diverged, diverged_at)
