"""Ground-truth dynamics for a rigid body in a 2-D incompressible flow.

Analytic flow fields (all derived from a scalar streamfunction, so they
are divergence-free by construction), the equations of motion
(anisotropic added mass, quadratic + linear drag on the relative
velocity), a classical RK4 integrator, the five synthetic scenarios, and
trajectory dataset generation with exact derivative labels.

The equations of motion are one function, :func:`body_acceleration`,
which accepts plain arrays or autodiff ``Var`` handles: the ground truth
passes it the true coefficient field and the learnable model its
coefficient network, so both run the very same formulas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ConfigurationError

Array = np.ndarray

SCENARIO_KINDS = (
    "steady_vortex",
    "time_varying_vortex",
    "noisy_flow",
    "obstacle_flow",
    "morison_wave",
)

_NOISE_STREAM = 7701  # rng stream tag for per-trajectory flow perturbations
OBSTACLE_CORE_FRAC = 0.3  # ObstacleFlow freezes psi inside this fraction of the radius
RADIAL_AMP = 0.1  # radial coefficients: m_ax(r) = m_ax * (1 + RADIAL_AMP * exp(-r))
# generate_dataset: start radius and speed ranges, sample interval (s), RK4 steps per sample
R_RANGE = (0.5, 4.0)
SPEED_RANGE = (0.0, 0.5)
DT_SAMPLE = 0.05
SUBSTEPS = 10


class PhysicalValidityError(ValueError):
    """A physically impossible configuration (e.g. non-positive effective mass)."""


class IntegrationError(RuntimeError):
    """A non-finite value appeared while integrating."""

    def __init__(self, message: str, time: float | None = None, stage: int | None = None):
        super().__init__(message)
        self.time = time
        self.stage = stage


def _raw(x):
    """Numeric view of a value that may be a Var."""
    return x.value if isinstance(x, ad.Var) else x


# -- domain types -------------------------------------------------------------


class Vec2(NamedTuple):
    x: object
    y: object


@dataclass
class State:
    """Body position and velocity; components may be scalars, arrays or Vars."""

    x: object
    y: object
    vx: object
    vy: object


def zero_force(state: State, t) -> Vec2:
    return Vec2(0.0, 0.0)


@dataclass(frozen=True)
class BodyProperties:
    """Dry mass plus a known external force f(State, t) -> Vec2."""

    mass: float
    external_force: Callable = zero_force

    def __post_init__(self) -> None:
        if not 0.0 < self.mass < np.inf:
            raise PhysicalValidityError(f"dry mass must be finite and > 0, got {self.mass}")


@dataclass(frozen=True)
class FluidProperties:
    rho: float
    area: float
    eps: float

    def __post_init__(self) -> None:
        for name in ("rho", "area", "eps"):
            v = getattr(self, name)
            if not 0.0 < v < np.inf:
                raise PhysicalValidityError(f"{name} must be finite and > 0, got {v}")


# -- flow fields ---------------------------------------------------------------


class FlowField:
    """Background flow contract: velocity components at (x, y, t).

    Analytic providers also expose their streamfunction; every provider
    here derives velocity as u = (-dpsi/dy, dpsi/dx), so the fields are
    divergence-free wherever they are smooth.
    """

    def velocity(self, x, y, t):
        raise NotImplementedError

    def streamfunction(self, x, y, t):
        raise NotImplementedError(f"{type(self).__name__} exposes no streamfunction")

    def _points(self, x) -> Array:
        """``x`` as a float array, for flows with no tape-mode form."""
        if isinstance(x, ad.Var):
            raise ConfigurationError(f"{type(self).__name__} has no tape-mode form for Var positions")
        return np.asarray(x, dtype=float)


class ZeroFlow(FlowField):
    def velocity(self, x, y, t):
        return Vec2(np.zeros(np.shape(_raw(x))), np.zeros(np.shape(_raw(y))))

    def streamfunction(self, x, y, t):
        return np.zeros(np.shape(_raw(x)))


@dataclass(frozen=True)
class SteadyVortexFlow(FlowField):
    """Saturating vortex: psi = (omega/2) r^2 / (1 + (r/r_core)^2).

    Speed grows linearly near the center, peaks around r_core/sqrt(3)
    and decays outward, so bodies never get flung to infinity.
    """

    omega: float
    r_core: float

    def _swirl(self, x, y, omega):
        # u = omega / (1 + r^2/r_core^2)^2 * (-y, x)
        q = (x * x + y * y) / self.r_core**2
        s = omega / (1.0 + q) ** 2
        return Vec2(-y * s, x * s)

    def _psi(self, x, y, omega):
        r2 = x * x + y * y
        return 0.5 * omega * r2 / (1.0 + r2 / self.r_core**2)

    def velocity(self, x, y, t):
        return self._swirl(x, y, self.omega)

    def streamfunction(self, x, y, t):
        return self._psi(x, y, self.omega)

    def peak_speed(self) -> float:
        r = self.r_core / np.sqrt(3.0)
        return abs(self.omega) * r / (1.0 + 1.0 / 3.0) ** 2


@dataclass(frozen=True)
class TimeVaryingVortexFlow(SteadyVortexFlow):
    """Same vortex with omega(t) = omega * (1 + amplitude*sin(2 pi t/period))."""

    amplitude: float
    period: float

    def _omega_at(self, t):
        return self.omega * (1.0 + self.amplitude * np.sin(2.0 * np.pi * t / self.period))

    def velocity(self, x, y, t):
        return self._swirl(x, y, self._omega_at(t))

    def streamfunction(self, x, y, t):
        return self._psi(x, y, self._omega_at(t))


@dataclass(frozen=True)
class PerturbedFlow(FlowField):
    """Base flow plus frozen divergence-free Fourier modes.

    Each mode contributes psi_j = amp_j * cos(kx_j x + ky_j y + phase_j).
    Mode arrays are (M,) for a single field, or (N, M) to evaluate one
    independent field per row of an (..., N) point batch.
    """

    base: FlowField
    amp: Array
    kx: Array
    ky: Array
    phase: Array

    def _theta(self, x, y):
        return (
            self._points(x)[..., None] * self.kx
            + self._points(y)[..., None] * self.ky
            + self.phase
        )

    def velocity(self, x, y, t):
        ub = self.base.velocity(x, y, t)
        s = np.sin(self._theta(x, y))
        # u = grad-perp of psi: (+amp*ky*sin, -amp*kx*sin)
        ux = np.sum(self.amp * self.ky * s, axis=-1)
        uy = -np.sum(self.amp * self.kx * s, axis=-1)
        return Vec2(ub.x + ux, ub.y + uy)

    def streamfunction(self, x, y, t):
        psi = np.sum(self.amp * np.cos(self._theta(x, y)), axis=-1)
        return self.base.streamfunction(x, y, t) + psi


def make_perturbation_modes(
    rng: np.random.Generator,
    n_modes: int,
    peak_speed: float,
    k_range: tuple[float, float],
) -> tuple[Array, Array, Array, Array]:
    """Random low-wavenumber modes whose summed speed bound is peak_speed."""
    kmag = rng.uniform(k_range[0], k_range[1], size=n_modes)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
    raw = rng.uniform(0.5, 1.0, size=n_modes)
    # each mode's speed is bounded by amp*|k|; scale the set to the target
    amp = raw * peak_speed / np.sum(raw * kmag)
    return amp, kmag * np.cos(angle), kmag * np.sin(angle), phase


@dataclass(frozen=True)
class ObstacleFlow(FlowField):
    """Potential flow past a cylinder: psi = u_inf * y * (1 - R^2/r^2).

    Exact outside the cylinder; inside r < OBSTACLE_CORE_FRAC*R the
    streamfunction is frozen at the core radius so velocity stays finite
    everywhere.  Nothing keeps a body outside the cylinder.
    """

    u_inf: float
    radius: float

    def _core2(self) -> float:
        return (OBSTACLE_CORE_FRAC * self.radius) ** 2

    def velocity(self, x, y, t):
        x = self._points(x)
        y = self._points(y)
        r2 = x * x + y * y
        inside = r2 < self._core2()
        r2s = np.where(inside, 1.0, r2)  # avoid 0/0; overwritten below
        ux_out = -self.u_inf * (1.0 - self.radius**2 / r2s + 2.0 * self.radius**2 * y * y / r2s**2)
        uy_out = 2.0 * self.u_inf * self.radius**2 * x * y / r2s**2
        ux_in = -self.u_inf * (1.0 - self.radius**2 / self._core2())
        ux = np.where(inside, ux_in, ux_out)
        uy = np.where(inside, 0.0, uy_out)
        return Vec2(ux, uy)

    def streamfunction(self, x, y, t):
        x = self._points(x)
        y = self._points(y)
        r2 = np.maximum(x * x + y * y, self._core2())
        return self.u_inf * y * (1.0 - self.radius**2 / r2)


# -- equations of motion -------------------------------------------------------


def body_acceleration(state: State, t, ux, uy, coefficients, body: BodyProperties, fluid: FluidProperties):
    """Acceleration (ax, ay) of the body in a flow of local velocity (ux, uy).

    The one statement of the equations of motion, shared by the ground
    truth and the learnable model, generic over arrays and Vars.  With
    v_rel = v - u, sigma = ||v_rel|| + eps and r = ||(x, y)||, the
    coefficients ``(m_ax, m_ay, c_q, c_l) = coefficients(r, sigma)`` give
    quadratic plus linear drag, each opposing v_rel; the known external
    force is added and the total divided by the diagonal effective mass.
    """
    vrx = state.vx - ux
    vry = state.vy - uy
    sigma = ad.sqrt(vrx * vrx + vry * vry) + fluid.eps
    r = ad.sqrt(state.x * state.x + state.y * state.y)
    m_ax, m_ay, c_q, c_l = coefficients(r, sigma)
    q = -0.5 * fluid.rho * fluid.area * c_q * sigma
    fqx = q * vrx
    fqy = q * vry
    neg_c_l = -c_l
    flx = neg_c_l * vrx
    fly = neg_c_l * vry
    fext = body.external_force(state, t)
    fx = fqx + flx + fext.x
    fy = fqy + fly + fext.y
    mx = body.mass + m_ax
    my = body.mass + m_ay
    # the array method, not np.any: its Python-level wrapper costs about as
    # much as the test, on every derivative call; NaN compares False, passes
    if np.less_equal(_raw(mx), 0.0).any() or np.less_equal(_raw(my), 0.0).any():
        raise PhysicalValidityError("effective mass must be positive in both axes")
    return fx / mx, fy / my


# -- coefficient fields ---------------------------------------------------------


@dataclass(frozen=True)
class TrueCoefficients:
    """True added masses [kg] and drag coefficients, all >= 0, as functions
    of the invariant features (r, sigma): constant, or with ``radial``
    m_ax(r) = m_ax * (1 + RADIAL_AMP * exp(-r)) and the rest constant."""

    m_ax: float
    m_ay: float
    c_q: float
    c_l: float
    radial: bool

    def __post_init__(self) -> None:
        for name in ("m_ax", "m_ay", "c_q", "c_l"):
            v = getattr(self, name)
            if not 0.0 <= v < np.inf:
                raise PhysicalValidityError(f"{name} must be finite and >= 0, got {v}")

    def at(self, r, sigma):
        m_ax = self.m_ax * (1.0 + RADIAL_AMP * ad.exp(-r)) if self.radial else self.m_ax
        return m_ax, self.m_ay, self.c_q, self.c_l

    def describe(self) -> dict:
        d = {"kind": "constant", "m_ax": self.m_ax, "m_ay": self.m_ay, "c_q": self.c_q, "c_l": self.c_l}
        if self.radial:
            d.update(kind="radial_added_mass", amp=RADIAL_AMP)
        return d


# -- integration -----------------------------------------------------------------


def rk4_step(f, s, t, h: float):
    """One classical 4-stage Runge-Kutta step of states ``s`` (an array).

    The only statement of the RK4 stages.  No stage is checked: callers
    decide what a non-finite derivative means.
    """
    k1 = f(s, t)
    k2 = f(s + (0.5 * h) * k1, t + 0.5 * h)
    k3 = f(s + (0.5 * h) * k2, t + 0.5 * h)
    k4 = f(s + h * k3, t + h)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(
    f,
    s0: Array,
    t0: float,
    duration: float,
    h: float,
    sample_every: int = 1,
) -> tuple[Array, Array]:
    """Repeated RK4 from t0 over `duration`, sampling every `sample_every` steps.

    Returns (times, states) with the initial and final states always
    included.  States may be (4,) or batched (N, 4).  A step whose new state
    is not finite raises :class:`IntegrationError` with the step's start
    time and its first non-finite stage.
    """
    if not 0.0 < duration < np.inf:
        raise ConfigurationError(f"duration must be finite and > 0, got {duration}")
    if not h > 0.0:
        raise ConfigurationError(f"step size must be > 0, got {h}")
    if sample_every < 1:
        raise ConfigurationError("sample_every must be >= 1")
    n_steps = int(round(duration / h))
    if abs(n_steps * h - duration) > 1e-9 * max(1.0, abs(duration)):
        raise ConfigurationError(f"step {h} does not divide duration {duration}")
    if n_steps % sample_every != 0:
        raise ConfigurationError("sample_every must divide the number of steps")
    s = np.asarray(s0, dtype=np.float64).copy()
    times = [t0]
    samples = [s.copy()]
    stages: list[Array] = []

    def recorded(s, t_stage):
        stages.append(f(s, t_stage))
        return stages[-1]

    # a non-finite stage poisons the new state, so one check per step sees
    # it; the stages after a bad one must not warn before that check
    with np.errstate(all="ignore"):
        for i in range(n_steps):
            t = t0 + i * h
            stages.clear()
            s = rk4_step(recorded, s, t, h)
            if not np.all(np.isfinite(s)):
                stage = next((j + 1 for j, k in enumerate(stages) if not np.all(np.isfinite(k))), None)
                what = f"non-finite derivative in RK4 stage {stage}" if stage else "non-finite RK4 update"
                msg = f"integration failed at t={t:.6g}: {what}"
                raise IntegrationError(msg, time=t, stage=stage)
            if (i + 1) % sample_every == 0:
                times.append(t0 + (i + 1) * h)
                samples.append(s.copy())
    return np.asarray(times), np.stack(samples, axis=0)


# -- trajectories and datasets -----------------------------------------------


@dataclass
class Trajectory:
    traj_id: str
    scenario: str
    seed: int
    split: str
    dt: float
    times: Array
    states: Array
    derivs: Array | None = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        self.states = np.asarray(self.states, dtype=np.float64)
        if self.derivs is not None:
            self.derivs = np.asarray(self.derivs, dtype=np.float64)
        if len(self.times) != len(self.states) or len(self.times) < 2:
            raise ConfigurationError("trajectory needs matching times/states with >= 2 samples")
        if self.states.ndim != 2 or self.states.shape[1] != 4:
            raise ConfigurationError(f"trajectory states must be (T, 4), got {self.states.shape}")
        if self.derivs is not None and self.derivs.shape != self.states.shape:
            raise ConfigurationError(f"labels {self.derivs.shape} must match states {self.states.shape}")
        if not self.dt > 0.0:
            raise ConfigurationError(f"trajectory dt must be > 0, got {self.dt}")
        gaps = np.diff(self.times)
        if not np.allclose(gaps, self.dt, rtol=0.0, atol=1e-9):
            raise ConfigurationError("trajectory samples must be uniformly spaced at dt")


@dataclass
class Dataset:
    trajectories: list[Trajectory]
    manifest: dict = field(default_factory=dict)

    def split(self, name: str) -> list[Trajectory]:
        return [t for t in self.trajectories if t.split == name]

    def save(self, jsonl_path, manifest_path=None) -> None:
        lines = []
        for tr in self.trajectories:
            record = {
                "id": tr.traj_id,
                "scenario": tr.scenario,
                "seed": tr.seed,
                "split": tr.split,
                "dt": tr.dt,
                "times": tr.times.tolist(),
                "states": tr.states.tolist(),
                "derivs": tr.derivs.tolist() if tr.derivs is not None else None,
            }
            lines.append(json.dumps(record, sort_keys=True))
        Path(jsonl_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        if manifest_path is not None:
            Path(manifest_path).write_text(
                json.dumps(self.manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )

    @classmethod
    def load(cls, jsonl_path, manifest_path=None) -> "Dataset":
        trajectories = []
        for lineno, line in enumerate(Path(jsonl_path).read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                raise ConfigurationError(f"{jsonl_path} line {lineno}: not JSON ({err})") from None
            try:
                trajectory = Trajectory(
                    traj_id=rec["id"],
                    scenario=rec["scenario"],
                    seed=rec["seed"],
                    split=rec["split"],
                    dt=rec["dt"],
                    times=rec["times"],
                    states=rec["states"],
                    derivs=rec["derivs"],
                )
            except KeyError as err:
                raise ConfigurationError(
                    f"{jsonl_path} line {lineno}: trajectory record lacks key {err.args[0]!r}"
                ) from None
            except (TypeError, ValueError) as err:  # ragged or non-numeric arrays, bad shapes
                raise ConfigurationError(f"{jsonl_path} line {lineno}: {err}") from None
            values = (trajectory.times, trajectory.states, trajectory.derivs)
            if not all(np.all(np.isfinite(v)) for v in values if v is not None):
                raise ConfigurationError(f"{jsonl_path} line {lineno}: trajectory holds non-finite values")
            trajectories.append(trajectory)
        manifest = {}
        if manifest_path is not None:
            if not Path(manifest_path).exists():
                raise ConfigurationError(f"dataset manifest {manifest_path} does not exist")
            try:
                manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
            except json.JSONDecodeError as err:
                raise ConfigurationError(f"{manifest_path}: not JSON ({err})") from None
        return cls(trajectories, manifest)


# -- scenarios -------------------------------------------------------------------

# the one source of every default physical value; the classes above have none
_COMMON_DEFAULTS = {
    "mass": 10.0,
    "m_ax": 36.0,
    "m_ay": 42.0,
    "c_q": 1.2,
    "c_l": 6.0,
    "rho": 1000.0,
    "area": 0.05,
    "eps": 1e-6,
    "radial_added_mass": False,
}

_SCENARIO_DEFAULTS: dict[str, dict] = {
    "steady_vortex": {"omega": 1.0, "r_core": 3.0},
    "time_varying_vortex": {"omega": 1.0, "r_core": 3.0, "amplitude": 0.3, "period": 10.0},
    "noisy_flow": {
        "omega": 1.0,
        "r_core": 3.0,
        "n_modes": 8,
        "noise_frac": 0.05,
        "k_min": 0.3,
        "k_max": 1.0,
    },
    "obstacle_flow": {"u_inf": 0.5, "radius": 1.0},
    "morison_wave": {
        "wave_speed": 0.3,
        "wave_period": 4.0,
        "drag_coeff": 1.0,
        "inertia_coeff": 1.0,
        "volume": 0.05,
    },
}


@dataclass(frozen=True)
class MorisonForcing:
    """Wave loading: drag on (u_wave - v) plus an inertial term on du_wave/dt."""

    rho: float
    area: float
    drag_coeff: float
    inertia_coeff: float
    volume: float
    wave_speed: float
    wave_period: float

    def __call__(self, state: State, t) -> Vec2:
        omega = 2.0 * np.pi / self.wave_period
        uwx = self.wave_speed * np.sin(omega * t)
        duwx = self.wave_speed * omega * np.cos(omega * t)
        relx = uwx - state.vx
        rely = 0.0 - state.vy
        speed = ad.sqrt(relx * relx + rely * rely)
        c = 0.5 * self.rho * self.drag_coeff * self.area
        inertial_x = self.rho * self.inertia_coeff * self.volume * duwx
        return Vec2(c * speed * relx + inertial_x, c * speed * rely)


@dataclass
class Scenario:
    """A fully specified ground-truth system for data generation."""

    kind: str
    flow: FlowField
    body: BodyProperties
    fluid: FluidProperties
    coeffs: TrueCoefficients
    params: dict
    min_start_radius: float = 0.0

    @property
    def per_trajectory_flow(self) -> bool:
        return self.kind == "noisy_flow"

    def trajectory_flow(self, traj_seed: int) -> FlowField:
        """The flow field a given trajectory actually experienced."""
        if not self.per_trajectory_flow:
            return self.flow
        p = self.params
        rng = np.random.default_rng([int(traj_seed), _NOISE_STREAM])
        amp, kx, ky, phase = make_perturbation_modes(
            rng, p["n_modes"], p["noise_frac"] * self.flow.peak_speed(), (p["k_min"], p["k_max"])
        )
        return PerturbedFlow(self.flow, amp, kx, ky, phase)

    def batch_flow(self, traj_seeds: Sequence[int]) -> FlowField:
        """One flow whose row i is the flow of trajectory traj_seeds[i]."""
        if not self.per_trajectory_flow:
            return self.flow
        flows = [self.trajectory_flow(ts) for ts in traj_seeds]
        modes = (np.stack([getattr(fl, k) for fl in flows]) for k in ("amp", "kx", "ky", "phase"))
        return PerturbedFlow(self.flow, *modes)

    def derivative_fn(self, flow: FlowField | None = None):
        """Ground-truth f(s, t) over (..., 4) arrays."""
        flow = self.flow if flow is None else flow
        body, fluid, coeffs = self.body, self.fluid, self.coeffs

        def f(s: Array, t) -> Array:
            x, y, vx, vy = s[..., 0], s[..., 1], s[..., 2], s[..., 3]
            u = flow.velocity(x, y, t)
            ax, ay = body_acceleration(State(x, y, vx, vy), t, u.x, u.y, coeffs.at, body, fluid)
            out = np.empty_like(s)
            out[..., 0] = vx
            out[..., 1] = vy
            out[..., 2] = ax
            out[..., 3] = ay
            return out

        return f


def make_scenario(kind: str, params: Mapping | None = None) -> Scenario:
    """Build one of the five ground-truth systems, with overridable params."""
    if kind not in SCENARIO_KINDS:
        raise ConfigurationError(f"unknown scenario kind: {kind!r} (choose from {SCENARIO_KINDS})")
    if params is not None and not isinstance(params, Mapping):
        raise ConfigurationError(f"scenario params must be a mapping of name to value, got {params!r}")
    resolved = dict(_COMMON_DEFAULTS)
    resolved.update(_SCENARIO_DEFAULTS[kind])
    for key, value in (params or {}).items():
        if key not in resolved:
            raise ConfigurationError(f"unknown scenario parameter {key!r} for {kind!r}")
        kind_of = type(resolved[key])
        try:
            # bool(value) is True for any non-empty string, and a bool is a number
            is_bool = isinstance(value, (bool, np.bool_))
            converted = None if (kind_of is bool) != is_bool else kind_of(value)
        except (TypeError, ValueError):
            converted = None
        if converted is None or (kind_of is int and converted != float(value)):
            raise ConfigurationError(
                f"scenario parameter {key!r} must be of type {kind_of.__name__}, got {value!r}"
            )
        if kind_of is float and not np.isfinite(converted):
            raise ConfigurationError(f"scenario parameter {key!r} must be finite, got {value!r}")
        resolved[key] = converted
    for key in ("r_core", "period", "radius", "wave_period"):  # each divides a flow or a force
        if key in _SCENARIO_DEFAULTS[kind] and not resolved[key] > 0.0:
            raise ConfigurationError(f"scenario parameter {key!r} must be > 0, got {resolved[key]!r}")
    if kind == "noisy_flow":
        n_modes, k_min, k_max = resolved["n_modes"], resolved["k_min"], resolved["k_max"]
        if not (n_modes >= 0 and 0.0 < k_min <= k_max):
            raise ConfigurationError(
                "scenario parameters 'n_modes', 'k_min' and 'k_max' need n_modes >= 0 and "
                f"0 < k_min <= k_max, got {n_modes}, {k_min} and {k_max}"
            )

    fluid = FluidProperties(rho=resolved["rho"], area=resolved["area"], eps=resolved["eps"])
    coeffs = TrueCoefficients(
        *(resolved[k] for k in ("m_ax", "m_ay", "c_q", "c_l")), radial=resolved["radial_added_mass"]
    )

    min_start_radius = 0.0
    external = zero_force
    if kind == "steady_vortex":
        flow: FlowField = SteadyVortexFlow(omega=resolved["omega"], r_core=resolved["r_core"])
    elif kind == "time_varying_vortex":
        flow = TimeVaryingVortexFlow(
            omega=resolved["omega"],
            r_core=resolved["r_core"],
            amplitude=resolved["amplitude"],
            period=resolved["period"],
        )
    elif kind == "noisy_flow":
        # the shared (average) field; per-trajectory perturbations come
        # from Scenario.trajectory_flow
        flow = SteadyVortexFlow(omega=resolved["omega"], r_core=resolved["r_core"])
    elif kind == "obstacle_flow":
        flow = ObstacleFlow(u_inf=resolved["u_inf"], radius=resolved["radius"])
        min_start_radius = 1.5 * resolved["radius"]
    else:  # morison_wave
        flow = ZeroFlow()
        external = MorisonForcing(
            rho=resolved["rho"],
            area=resolved["area"],
            drag_coeff=resolved["drag_coeff"],
            inertia_coeff=resolved["inertia_coeff"],
            volume=resolved["volume"],
            wave_speed=resolved["wave_speed"],
            wave_period=resolved["wave_period"],
        )

    body = BodyProperties(mass=resolved["mass"], external_force=external)
    return Scenario(
        kind=kind,
        flow=flow,
        body=body,
        fluid=fluid,
        coeffs=coeffs,
        params=resolved,
        min_start_radius=min_start_radius,
    )


def draw_initial_state(rng: np.random.Generator, min_radius: float = 0.0) -> Array:
    """A start at radius in R_RANGE (and >= min_radius), speed in SPEED_RANGE."""
    r = rng.uniform(max(R_RANGE[0], min_radius), R_RANGE[1])
    angle = rng.uniform(0.0, 2.0 * np.pi)
    speed = rng.uniform(SPEED_RANGE[0], SPEED_RANGE[1])
    heading = rng.uniform(0.0, 2.0 * np.pi)
    return np.array(
        [r * np.cos(angle), r * np.sin(angle), speed * np.cos(heading), speed * np.sin(heading)]
    )


def generate_dataset(
    scenario: Scenario,
    n_train: int,
    n_test: int,
    duration: float = 8.0,
    seed: int = 0,
) -> Dataset:
    """Integrate ground truth for n_train+n_test seeded trajectories,
    sampled every DT_SAMPLE seconds.

    Each trajectory gets the derived seed (seed XOR index) and a start
    drawn by :func:`draw_initial_state` from R_RANGE and SPEED_RANGE
    (outside the scenario's ``min_start_radius``); membership in
    train/test is assigned per whole trajectory.  All trajectories run
    in one batched integration, one row each; where every trajectory
    sees its own flow (``noisy_flow``), those flows are stacked row by
    row into one field by :meth:`Scenario.batch_flow`.  Derivative labels
    come from the analytic right-hand side at every sample, evaluated in
    one vectorised call, and the integrator runs at h = DT_SAMPLE/SUBSTEPS
    so label and rollout error stay far below learned-model error floors.
    """
    if n_train < 1 or n_test < 1:
        raise ConfigurationError("n_train and n_test must each be >= 1")
    n_total = n_train + n_test
    h = DT_SAMPLE / SUBSTEPS
    traj_seeds = [int(seed) ^ i for i in range(n_total)]
    starts = np.stack(
        [draw_initial_state(np.random.default_rng(ts), scenario.min_start_radius) for ts in traj_seeds]
    )

    f = scenario.derivative_fn(scenario.batch_flow(traj_seeds))
    times, samples = integrate(f, starts, 0.0, duration, h, sample_every=SUBSTEPS)
    derivs = f(samples, times[:, None])
    trajectories = [
        Trajectory(
            traj_id=f"{scenario.kind}-{i:03d}",
            scenario=scenario.kind,
            seed=traj_seeds[i],
            split="train" if i < n_train else "test",
            dt=DT_SAMPLE,
            times=times,
            states=samples[:, i, :],
            derivs=derivs[:, i, :],
        )
        for i in range(n_total)
    ]
    manifest = {
        "scenario": scenario.kind,
        "params": scenario.params,
        "true_coefficients": scenario.coeffs.describe(),
        "body": {"mass": scenario.body.mass},
        "fluid": {"rho": scenario.fluid.rho, "area": scenario.fluid.area, "eps": scenario.fluid.eps},
        "n_train": n_train,
        "n_test": n_test,
        "duration": duration,
        "dt_sample": DT_SAMPLE,
        "seed": seed,
        "r_range": list(R_RANGE),
        "speed_range": list(SPEED_RANGE),
        "substeps": SUBSTEPS,
    }
    return Dataset(trajectories, manifest)


def scenario_from_manifest(manifest: Mapping) -> Scenario:
    """Rebuild the generating system recorded in a dataset manifest."""
    for key in ("scenario", "params"):
        if key not in manifest:
            raise ConfigurationError(f"dataset manifest lacks key {key!r}")
    return make_scenario(manifest["scenario"], params=manifest["params"])


# -- numeric field checks -----------------------------------------------------


def numerical_divergence(velocity_fn, x, y, t=0.0, spacing: float = 1e-4):
    """Central-difference divergence of a velocity field at given points."""
    ux_p = velocity_fn(x + spacing, y, t)[0]
    ux_m = velocity_fn(x - spacing, y, t)[0]
    uy_p = velocity_fn(x, y + spacing, t)[1]
    uy_m = velocity_fn(x, y - spacing, t)[1]
    return (ux_p - ux_m + uy_p - uy_m) / (2.0 * spacing)
