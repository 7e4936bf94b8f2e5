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
off.  A :class:`ModelDescriptor` is a variant and an init seed, and the
variant alone fixes each network's widths and activation, which
:meth:`ModelDescriptor.param_shapes` names: no other module knows a
parameter name.  Each network is the dense network of
:mod:`floatdyn.autodiff`, handed its weight and bias lists.
``stream_eval`` pushes psi with its first and second input-derivatives
through the streamfunction network in one numpy pass
(``autodiff.mlp_jet``, Taylor mode at d = 2 inputs).  On the tape that
pass is one node whose backward is ``autodiff.mlp_jet_vjp``, so the
flow, its divergence-free construction and the Hessian penalty are all
differentiable with respect to both the parameters and the positions.
:class:`StreamFlow` is that flow as a ``physics.FlowField``, like a true flow.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import asdict, dataclass, fields
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

DIVERGENCE_LIMIT = 1e6  # any rollout component beyond this is flagged diverged

# soft upper caps of the learned (m_ax, m_ay, c_q, c_l), see cap_map
CAPS = np.array([60.0, 60.0, 2.0, 10.0])
CAPS.setflags(write=False)


@dataclass(frozen=True)
class ModelDescriptor:
    """A variant and its init seed, which checkpoints record; the variant
    fixes the networks' hidden widths and activation."""

    variant: str
    seed: int

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant: {self.variant!r}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ConfigurationError(f"seed must be an integer >= 0, got {self.seed!r}")

    @property
    def hidden(self) -> tuple[int, ...]:
        return (16,) if self.variant == "shallow" else (64, 64)

    @property
    def activation(self) -> str:
        return "relu" if self.variant == "relu" else "tanh"

    @property
    def learns_flow(self) -> bool:
        """Whether the dynamics read the stream network."""
        return self.variant not in ("neural_ode", "no_flow_field")

    def networks(self) -> dict[str, tuple[int, ...]]:
        """Layer widths of each network the dynamics read, by parameter-name
        prefix, in draw order."""
        if self.variant == "neural_ode":
            return {"node.": (4, *self.hidden, 2)}
        nets = {"coeff.": (2, *self.hidden, 4)}
        if self.learns_flow:
            nets["stream."] = (2, *self.hidden, 1)
        return nets

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name and shape of every parameter tensor, in draw order: weights
        ``{prefix}W{i}`` (out, in) and biases ``{prefix}b{i}``."""
        shapes = {}
        for prefix, widths in self.networks().items():
            for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
                shapes[f"{prefix}W{i}"] = (fan_out, fan_in)
                shapes[f"{prefix}b{i}"] = (fan_out,)
        return shapes

    def to_metadata(self) -> dict:
        return asdict(self)

    @classmethod
    def from_metadata(cls, meta) -> "ModelDescriptor":
        """Exactly ``{variant, seed}``: a recorded network that the variant
        does not fix is refused rather than loaded as something else."""
        if not isinstance(meta, Mapping):
            raise ConfigurationError(f"model descriptor must be a mapping, got {meta!r}")
        names = {f.name for f in fields(cls)}
        odd = sorted(names ^ set(meta))
        if odd:
            what = "lacks" if odd[0] in names else "has unknown"
            raise ConfigurationError(f"model descriptor {what} key {odd[0]!r}")
        return cls(**meta)


def init_params(desc: ModelDescriptor) -> ad.ParamStore:
    """Seeded Glorot-uniform weights, uniform in +/- sqrt(6/(in+out)), and
    zero biases, drawn in the order of :meth:`ModelDescriptor.param_shapes`."""
    rng = np.random.default_rng(desc.seed)
    store = ad.ParamStore()
    for name, shape in desc.param_shapes().items():
        if len(shape) == 1:  # a bias
            store[name] = np.zeros(shape)
        else:
            bound = np.sqrt(6.0 / sum(shape))
            store[name] = rng.uniform(-bound, bound, size=shape)
    return store


@functools.cache
def _layer_getters(prefix: str, depth: int) -> tuple[operator.itemgetter, ...]:
    """Getters of the weights and of the biases of a network of ``depth`` >= 2 layers."""
    return tuple(operator.itemgetter(*[f"{prefix}{kind}{i}" for i in range(depth)]) for kind in "Wb")


def _layers(params: Mapping, prefix: str, desc: ModelDescriptor) -> tuple[tuple, tuple]:
    """The weights and the biases of one network, in layer order."""
    weights, biases = _layer_getters(prefix, len(desc.hidden) + 1)
    return weights(params), biases(params)


# -- coefficient network --------------------------------------------------------


def cap_map(z, caps: Array):
    """Squash raw outputs into [C/2, C) per coefficient: C*sigmoid(softplus(z)/C).

    softplus(z) >= 0 and sigmoid(0) = 1/2, so no learned coefficient goes
    below half its cap.  That floor acts as a prior: a system whose value
    lies below it is outside the structured model's hypothesis space.
    """
    return caps * ad.sigmoid(ad.softplus(z) / caps)


def coefficient_net(params: Mapping, features, desc: ModelDescriptor):
    """Coefficients from (r, sigma) features, capped at CAPS, shape (..., 4)."""
    raw = ad.forward_mlp(*_layers(params, "coeff.", desc), features, desc.activation)
    return cap_map(raw, CAPS)


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


def stream_eval(params: Mapping, x, y, desc: ModelDescriptor, order: int = 2) -> StreamEval:
    """Evaluate psi with its gradient and, at order 2, its Hessian.

    One numpy pass, :func:`floatdyn.autodiff.mlp_jet` at d = 2 inputs,
    pushes the jet through the stream network.  With plain arrays its
    columns are returned as they are.  When parameters or positions are
    Vars the jet is one :func:`floatdyn.autodiff.jet_node`, valued (N, 3)
    or (N, 6), whose backward is :func:`floatdyn.autodiff.mlp_jet_vjp`;
    each field is a column of that node, so parameter gradients of any
    function of (psi, grad, Hess) are available, and so are position
    gradients at either order.
    """
    if order not in (1, 2):
        raise ConfigurationError("order must be 1 or 2")
    ndim = max(np.ndim(x), np.ndim(y))
    if ndim > 1:
        raise ConfigurationError(f"stream_eval expects scalar or 1-D positions, got {ndim}-D")
    if (isinstance(x, ad.Var) or isinstance(y, ad.Var)) and np.shape(x) != np.shape(y):
        raise ConfigurationError("Var positions need x and y of one shape")
    jet = ad.jet_node([x, y], *_layers(params, "stream.", desc), desc.activation, order)
    if isinstance(jet, ad.Var):
        return StreamEval(*[ad.take_col(jet, k) for k in range(jet.shape[-1])])
    return StreamEval(*[c[..., 0] for c in jet])


@dataclass(frozen=True)
class StreamFlow(ph.FlowField):
    """The learned flow, u = grad-perp psi at ``params``; it ignores t.

    Like a true flow it takes numpy positions of any shape: above 1-D they
    are raveled for :func:`stream_eval` and its fields shaped back.  Var
    positions must be scalar or 1-D.
    """

    params: Mapping
    desc: ModelDescriptor

    def _eval(self, x, y) -> StreamEval:
        """Order-1 :func:`stream_eval` at (x, y), its fields in their shape;
        stream_eval checks every position but a numpy grid's."""
        if isinstance(x, np.ndarray) and x.ndim > 1 or isinstance(y, np.ndarray) and y.ndim > 1:
            x, y = np.broadcast_arrays(x, y)
            jet = stream_eval(self.params, x.ravel(), y.ravel(), self.desc, order=1)
            return StreamEval(*(f.reshape(x.shape) for f in (jet.psi, jet.gx, jet.gy)))
        return stream_eval(self.params, x, y, self.desc, order=1)

    def velocity(self, x, y, t):
        return self._eval(x, y).velocity()

    def streamfunction(self, x, y, t):
        return self._eval(x, y).psi


# -- derivative assembly ------------------------------------------------------------


@dataclass
class DynamicsModel:
    """A dynamics variant bound to its parameters and physical context.

    ``body`` and ``fluid`` are the known quantities of the system under
    identification (dry mass, known external forcing, fluid constants) and
    have no default, so a model cannot silently drop a scenario's known
    force.  Everything hydrodynamic is either learned (structured variants)
    or absorbed by the black-box baseline; the learned coefficients lie in
    [CAPS/2, CAPS) (see :func:`cap_map`), and :meth:`flow` is the flow the
    dynamics read.  ``params`` must hold exactly the tensors of
    :meth:`ModelDescriptor.param_shapes`, which is checked here.  Roll a
    model out with ``rollout_model(model.derivative, ...)``.
    """

    descriptor: ModelDescriptor
    params: ad.ParamStore
    body: ph.BodyProperties
    fluid: ph.FluidProperties
    # a known flow substituted for the learned one (plug-in oracles)
    flow_override: object = None

    def __post_init__(self) -> None:
        shapes = self.descriptor.param_shapes()
        for name, shape in shapes.items():
            if name not in self.params:
                raise ConfigurationError(f"{self.descriptor.variant} model params lack tensor {name!r}")
            if self.params[name].shape != shape:
                got = self.params[name].shape
                raise ConfigurationError(f"tensor {name!r} has shape {got}, the network needs {shape}")
        extra = sorted(set(self.params.names()) - set(shapes))
        if extra:
            raise ConfigurationError(f"{self.descriptor.variant} model has no network that reads {extra[0]!r}")

    @classmethod
    def initialize(cls, variant: str, seed: int, **kwargs) -> "DynamicsModel":
        desc = ModelDescriptor(variant, seed)
        return cls(descriptor=desc, params=init_params(desc), **kwargs)

    def derivative(self, s, t, params: Mapping | None = None, jet=None):
        """State derivative for (4,) or (N, 4) states; tape mode when params are Vars.

        ``jet`` is an optional ``stream_eval`` of these params at the positions
        of ``s``; see :func:`fhnn_derivative`.  Other states are read as float64 arrays.
        """
        if not isinstance(s, ad.Var):
            s = np.asarray(s, dtype=np.float64)
        shape = s.shape
        if len(shape) not in (1, 2) or shape[-1] != 4:
            raise ConfigurationError(f"model states must be (4,) or (N, 4), got {shape}")
        p = self.params if params is None else params
        if self.descriptor.variant == "neural_ode":
            return neural_ode_derivative(s, t, p, self.descriptor)
        return fhnn_derivative(s, t, p, self, jet=jet)

    def flow(self, params: Mapping | None = None) -> ph.FlowField:
        """The flow the dynamics read: ``flow_override`` if set, ``ZeroFlow``
        for ``no_flow_field``, else the :class:`StreamFlow` at ``params``."""
        if self.descriptor.variant == "neural_ode":
            raise ad.UsageError("the neural_ode variant reads no flow field")
        if self.flow_override is not None:
            return self.flow_override
        if not self.descriptor.learns_flow:
            return ph.ZeroFlow()
        return StreamFlow(self.params if params is None else params, self.descriptor)

    def save(self, path) -> None:
        ad.save_checkpoint(path, self.params, {"descriptor": self.descriptor.to_metadata()})

    @classmethod
    def load(cls, path, expected_variant: str | None = None, **kwargs) -> "DynamicsModel":
        params, meta = ad.load_checkpoint(path)
        if "descriptor" not in meta:
            raise ConfigurationError(f"checkpoint {path} lacks key 'descriptor'")
        desc = ModelDescriptor.from_metadata(meta["descriptor"])
        if expected_variant is not None and desc.variant != expected_variant:
            raise ConfigurationError(
                f"checkpoint holds variant {desc.variant!r}, expected {expected_variant!r}"
            )
        return cls(descriptor=desc, params=params, **kwargs)


def fhnn_derivative(s, t, params: Mapping, model: DynamicsModel, jet: StreamEval | None = None):
    """Structured state derivative: ``model.flow(params)`` and the learned
    capped coefficients fed through :func:`floatdyn.physics.body_acceleration`,
    the equations of motion the ground truth also uses.

    ``jet``, a ``stream_eval`` of ``params`` at the positions of ``s`` of
    either order, replaces a :class:`StreamFlow`'s own order-1 evaluation.
    The ablations zero their coefficients here.
    """
    desc = model.descriptor
    x, y, vx, vy = [ad.take_col(s, j) for j in range(4)]
    flow = model.flow(params)
    use_jet = jet is not None and isinstance(flow, StreamFlow)
    ux, uy = jet.velocity() if use_jet else flow.velocity(x, y, t)

    def coefficients(r, sigma):
        coeffs = coefficient_net(params, ad.stack_last([r, sigma]), desc)
        m_ax, m_ay, c_q, c_l = [ad.take_col(coeffs, j) for j in range(4)]
        if desc.variant == "no_added_mass":
            m_ax = m_ay = 0.0
        if desc.variant == "no_linear_drag":
            c_l = 0.0
        return m_ax, m_ay, c_q, c_l

    ax, ay = ph.body_acceleration(ph.State(x, y, vx, vy), t, ux, uy, coefficients, model.body, model.fluid)
    return ad.stack_last([vx, vy, ax, ay])


def neural_ode_derivative(s, t, params: Mapping, desc: ModelDescriptor):
    """Black-box baseline: an MLP maps the raw state to (ax, ay).

    The kinematic half of the derivative is kept exact so the comparison
    against the structured model isolates force modeling.
    """
    acc = ad.forward_mlp(*_layers(params, "node.", desc), s, desc.activation)
    return ad.stack_last([ad.take_col(s, 2), ad.take_col(s, 3), ad.take_col(acc, 0), ad.take_col(acc, 1)])


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
    if s.ndim != 2 or s.shape[1] != 4:
        raise ConfigurationError(f"rollout states must be (4,) or (N, 4), got {np.shape(s0)}")
    if not 0.0 <= duration < np.inf:
        raise ConfigurationError(f"duration must be finite and >= 0, got {duration}")
    if not step > 0.0:
        raise ConfigurationError(f"rollout step must be > 0, got {step}")
    if checkpoints is None:
        checkpoints = [duration]
    cps = np.asarray(sorted(float(c) for c in checkpoints))
    if len(cps) and not (0.0 <= cps.min() and cps.max() <= duration + 1e-12):
        raise ConfigurationError("checkpoints must lie inside [0, duration]")
    steps_per = np.rint(cps / step).astype(int)
    if not np.allclose(steps_per * step, cps, rtol=0.0, atol=1e-9):
        raise ConfigurationError("rollout step must divide every checkpoint time")
    sampled = set(steps_per.tolist())

    n_steps = int(round(duration / step)) if duration > 0 else 0
    diverged = np.zeros(s.shape[0], dtype=bool)
    diverged_at = np.full(s.shape[0], np.nan)
    samples = {}
    if 0 in sampled:
        samples[0] = s.copy()
    with np.errstate(all="ignore"):
        for i in range(n_steps):
            t = i * step
            # rows are independent, so a blowing-up row cannot poison its
            # neighbours; flagged rows stay frozen via np.where
            proposal = ph.rk4_step(derivative_fn, s, t, step)
            # NaN and inf fail the comparison too
            bad = ~(np.abs(proposal) <= DIVERGENCE_LIMIT).all(axis=-1)
            if bad.any():
                diverged_at[bad & ~diverged] = t + step
                diverged |= bad
            s = np.where(diverged[:, None], s, proposal) if diverged.any() else proposal
            if i + 1 in sampled:
                samples[i + 1] = s.copy()
    states = np.stack([samples[k] for k in steps_per], axis=0)
    if single:
        states = states[:, 0, :]
        return Rollout(cps, states, diverged[0], diverged_at[0])
    return Rollout(cps, states, diverged, diverged_at)
