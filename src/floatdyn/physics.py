"""Ground-truth dynamics for a rigid body in a 2-D incompressible flow.

Analytic flow fields (all derived from a scalar streamfunction, so they
are divergence-free by construction), the hydrodynamic force model
(anisotropic added mass, quadratic + linear drag on the relative
velocity), a classical RK4 integrator, the five synthetic scenarios, and
trajectory dataset generation with exact derivative labels.

The component-level force functions accept plain arrays or autodiff
``Var`` handles, so the learnable model assembles its dynamics from the
very same formulas the ground truth uses.
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

    @classmethod
    def from_array(cls, s) -> "State":
        s = np.asarray(s, dtype=np.float64)
        return cls(s[..., 0], s[..., 1], s[..., 2], s[..., 3])


def zero_force(state: State, t) -> Vec2:
    return Vec2(0.0, 0.0)


@dataclass(frozen=True)
class BodyProperties:
    """Dry mass plus a known external force f(State, t) -> Vec2."""

    mass: float = 10.0
    external_force: Callable = zero_force

    def __post_init__(self) -> None:
        if self.mass <= 0.0:
            raise PhysicalValidityError("dry mass must be > 0")


@dataclass(frozen=True)
class FluidProperties:
    rho: float = 1000.0
    area: float = 0.05
    eps: float = 1e-6

    def __post_init__(self) -> None:
        if self.rho <= 0.0 or self.area <= 0.0 or self.eps <= 0.0:
            raise PhysicalValidityError("rho, area and eps must all be > 0")


@dataclass(frozen=True)
class HydroCoefficients:
    """Added masses [kg] and drag coefficients; all nonnegative."""

    m_ax: float
    m_ay: float
    c_q: float
    c_l: float

    def __post_init__(self) -> None:
        for name in ("m_ax", "m_ay", "c_q", "c_l"):
            v = getattr(self, name)
            if isinstance(v, (int, float)) and v < 0.0:
                raise PhysicalValidityError(f"{name} must be >= 0, got {v}")

    def as_tuple(self):
        return (self.m_ax, self.m_ay, self.c_q, self.c_l)


@dataclass
class RelativeKinematics:
    """Velocity relative to the local flow and the regularized speed."""

    v_rel: Vec2
    sigma: object


@dataclass
class ForceBreakdown:
    """Quadratic drag, linear drag and their sum; each opposes v_rel."""

    quadratic: Vec2
    linear: Vec2
    total: Vec2


# -- flow fields ---------------------------------------------------------------


class FlowField:
    """Background flow contract: velocity components at (x, y, t).

    Analytic providers also expose their streamfunction; every provider
    here derives velocity as u = (-dpsi/dy, dpsi/dx), so the fields are
    divergence-free wherever they are smooth.
    """

    has_streamfunction = False

    def velocity(self, x, y, t):
        raise NotImplementedError

    def streamfunction(self, x, y, t):
        raise NotImplementedError(f"{type(self).__name__} exposes no streamfunction")


class ZeroFlow(FlowField):
    has_streamfunction = True

    def velocity(self, x, y, t):
        return Vec2(np.zeros_like(np.asarray(x, dtype=float)), np.zeros_like(np.asarray(y, dtype=float)))

    def streamfunction(self, x, y, t):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class SteadyVortexFlow(FlowField):
    """Saturating vortex: psi = (omega/2) r^2 / (1 + (r/r_core)^2).

    Speed grows linearly near the center, peaks around r_core/sqrt(3)
    and decays outward, so bodies never get flung to infinity.
    """

    omega: float = 1.0
    r_core: float = 3.0
    has_streamfunction = True

    def _swirl(self, x, y, omega):
        # u = omega / (1 + r^2/r_core^2)^2 * (-y, x)
        q = (x * x + y * y) / self.r_core**2
        s = omega / (1.0 + q) ** 2
        return Vec2(-y * s, x * s)

    def velocity(self, x, y, t):
        return self._swirl(x, y, self.omega)

    def streamfunction(self, x, y, t):
        r2 = x * x + y * y
        return 0.5 * self.omega * r2 / (1.0 + r2 / self.r_core**2)

    def peak_speed(self) -> float:
        r = self.r_core / np.sqrt(3.0)
        return abs(self.omega) * r / (1.0 + 1.0 / 3.0) ** 2


@dataclass(frozen=True)
class TimeVaryingVortexFlow(SteadyVortexFlow):
    """Same vortex with omega(t) = omega * (1 + amplitude*sin(2 pi t/period))."""

    amplitude: float = 0.3
    period: float = 10.0

    def _omega_at(self, t):
        return self.omega * (1.0 + self.amplitude * np.sin(2.0 * np.pi * t / self.period))

    def velocity(self, x, y, t):
        return self._swirl(x, y, self._omega_at(t))

    def streamfunction(self, x, y, t):
        r2 = x * x + y * y
        return 0.5 * self._omega_at(t) * r2 / (1.0 + r2 / self.r_core**2)


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
    has_streamfunction = True

    def _theta(self, x, y):
        return (
            np.asarray(x, dtype=float)[..., None] * self.kx
            + np.asarray(y, dtype=float)[..., None] * self.ky
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

    Exact outside the cylinder; inside r < core_frac*R the streamfunction
    is frozen at the core radius so velocity stays finite everywhere.
    The contracted region of validity is r >= margin*R.
    """

    u_inf: float = 0.5
    radius: float = 1.0
    margin: float = 1.2
    core_frac: float = 0.3
    has_streamfunction = True

    def _core2(self) -> float:
        return (self.core_frac * self.radius) ** 2

    def velocity(self, x, y, t):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
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
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r2 = np.maximum(x * x + y * y, self._core2())
        return self.u_inf * y * (1.0 - self.radius**2 / r2)


# -- hydrodynamic forces -------------------------------------------------------


def relative_velocity(vx, vy, ux, uy, eps):
    """v_rel = v - u and sigma = ||v_rel|| + eps.  Generic over Var/array."""
    vrx = vx - ux
    vry = vy - uy
    sigma = ad.sqrt(vrx * vrx + vry * vry) + eps
    return vrx, vry, sigma


def drag_forces(vrx, vry, sigma, c_q, c_l, rho, area):
    """Quadratic and linear drag components, each opposing v_rel."""
    q = -0.5 * rho * area * c_q * sigma
    fqx = q * vrx
    fqy = q * vry
    flx = -c_l * vrx
    fly = -c_l * vry
    return fqx, fqy, flx, fly


def accel_components(fx, fy, mass, m_ax, m_ay):
    """Acceleration from total force via the diagonal effective mass."""
    mx = mass + m_ax
    my = mass + m_ay
    if np.any(_raw(mx) <= 0.0) or np.any(_raw(my) <= 0.0):
        raise PhysicalValidityError("effective mass must be positive in both axes")
    return fx / mx, fy / my


def relative_kinematics(state: State, flow: FlowField, t, fluid: FluidProperties) -> RelativeKinematics:
    u = flow.velocity(state.x, state.y, t)
    vrx, vry, sigma = relative_velocity(state.vx, state.vy, u.x, u.y, fluid.eps)
    return RelativeKinematics(v_rel=Vec2(vrx, vry), sigma=sigma)


def hydro_forces(kin: RelativeKinematics, coeffs: HydroCoefficients, fluid: FluidProperties) -> ForceBreakdown:
    fqx, fqy, flx, fly = drag_forces(
        kin.v_rel.x, kin.v_rel.y, kin.sigma, coeffs.c_q, coeffs.c_l, fluid.rho, fluid.area
    )
    return ForceBreakdown(
        quadratic=Vec2(fqx, fqy),
        linear=Vec2(flx, fly),
        total=Vec2(fqx + flx, fqy + fly),
    )


def acceleration(
    state: State,
    coeffs: HydroCoefficients,
    body: BodyProperties,
    fluid: FluidProperties,
    flow: FlowField,
    t,
) -> Vec2:
    kin = relative_kinematics(state, flow, t, fluid)
    forces = hydro_forces(kin, coeffs, fluid)
    fext = body.external_force(state, t)
    ax, ay = accel_components(
        forces.total.x + fext.x, forces.total.y + fext.y, body.mass, coeffs.m_ax, coeffs.m_ay
    )
    return Vec2(ax, ay)


# -- coefficient fields ---------------------------------------------------------


class CoefficientField:
    """True coefficients as functions of the invariant features (r, sigma)."""

    def at(self, r, sigma):
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantCoefficients(CoefficientField):
    values: HydroCoefficients

    def at(self, r, sigma):
        return self.values.as_tuple()

    def describe(self) -> dict:
        m_ax, m_ay, c_q, c_l = self.values.as_tuple()
        return {"kind": "constant", "m_ax": m_ax, "m_ay": m_ay, "c_q": c_q, "c_l": c_l}


@dataclass(frozen=True)
class RadialAddedMass(CoefficientField):
    """m_ax(r) = m_ax * (1 + amp * exp(-r)); the rest constant."""

    values: HydroCoefficients
    amp: float = 0.1

    def at(self, r, sigma):
        m_ax, m_ay, c_q, c_l = self.values.as_tuple()
        return m_ax * (1.0 + self.amp * ad.exp(-r)), m_ay, c_q, c_l

    def describe(self) -> dict:
        d = ConstantCoefficients(self.values).describe()
        d.update(kind="radial_added_mass", amp=self.amp)
        return d


def coefficient_field_from_description(desc: Mapping) -> CoefficientField:
    values = HydroCoefficients(desc["m_ax"], desc["m_ay"], desc["c_q"], desc["c_l"])
    if desc["kind"] == "constant":
        return ConstantCoefficients(values)
    if desc["kind"] == "radial_added_mass":
        return RadialAddedMass(values, amp=desc["amp"])
    raise ConfigurationError(f"unknown coefficient field kind: {desc['kind']!r}")


# -- integration -----------------------------------------------------------------


def rk4_step(f, s, t: float, h: float):
    """One classical 4-stage Runge-Kutta step; s may be an array or a Var."""
    if h <= 0.0:
        raise ConfigurationError("step size must be > 0")
    k1 = f(s, t)
    k2 = f(s + (0.5 * h) * k1, t + 0.5 * h)
    k3 = f(s + (0.5 * h) * k2, t + 0.5 * h)
    k4 = f(s + h * k3, t + h)
    for stage, k in enumerate((k1, k2, k3, k4), start=1):
        if not np.all(np.isfinite(_raw(k))):
            raise IntegrationError(f"non-finite derivative in RK4 stage {stage}", time=t, stage=stage)
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
    included.  States may be (4,) or batched (N, 4).
    """
    if duration <= 0.0:
        raise ConfigurationError("duration must be > 0")
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
    for i in range(n_steps):
        t = t0 + i * h
        try:
            s = rk4_step(f, s, t, h)
        except IntegrationError as err:
            raise IntegrationError(
                f"integration failed at t={t:.6g}: {err}", time=t, stage=err.stage
            ) from err
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
        gaps = np.diff(self.times)
        if not np.allclose(gaps, self.dt, rtol=0.0, atol=1e-9):
            raise ConfigurationError("trajectory samples must be uniformly spaced at dt")

    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])


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
        for line in Path(jsonl_path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            trajectories.append(
                Trajectory(
                    traj_id=rec["id"],
                    scenario=rec["scenario"],
                    seed=rec["seed"],
                    split=rec["split"],
                    dt=rec["dt"],
                    times=rec["times"],
                    states=rec["states"],
                    derivs=rec["derivs"],
                )
            )
        manifest = {}
        if manifest_path is not None and Path(manifest_path).exists():
            manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
        return cls(trajectories, manifest)


# -- scenarios -------------------------------------------------------------------

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
    "obstacle_flow": {"u_inf": 0.5, "radius": 1.0, "margin": 1.2},
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
    coeffs: CoefficientField
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
        base = SteadyVortexFlow(omega=p["omega"], r_core=p["r_core"])
        amp, kx, ky, phase = make_perturbation_modes(
            rng, p["n_modes"], p["noise_frac"] * base.peak_speed(), (p["k_min"], p["k_max"])
        )
        return PerturbedFlow(base, amp, kx, ky, phase)

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
            vrx, vry, sigma = relative_velocity(vx, vy, u.x, u.y, fluid.eps)
            r = np.sqrt(x * x + y * y)
            m_ax, m_ay, c_q, c_l = coeffs.at(r, sigma)
            fqx, fqy, flx, fly = drag_forces(vrx, vry, sigma, c_q, c_l, fluid.rho, fluid.area)
            fext = body.external_force(State(x, y, vx, vy), t)
            ax, ay = accel_components(fqx + flx + fext.x, fqy + fly + fext.y, body.mass, m_ax, m_ay)
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
    resolved = dict(_COMMON_DEFAULTS)
    resolved.update(_SCENARIO_DEFAULTS[kind])
    for key, value in (params or {}).items():
        if key not in resolved:
            raise ConfigurationError(f"unknown scenario parameter {key!r} for {kind!r}")
        resolved[key] = type(resolved[key])(value) if not isinstance(resolved[key], bool) else bool(value)

    fluid = FluidProperties(rho=resolved["rho"], area=resolved["area"], eps=resolved["eps"])
    true_values = HydroCoefficients(
        m_ax=resolved["m_ax"], m_ay=resolved["m_ay"], c_q=resolved["c_q"], c_l=resolved["c_l"]
    )
    coeffs: CoefficientField = (
        RadialAddedMass(true_values) if resolved["radial_added_mass"] else ConstantCoefficients(true_values)
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
        flow = ObstacleFlow(u_inf=resolved["u_inf"], radius=resolved["radius"], margin=resolved["margin"])
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


def draw_initial_state(
    rng: np.random.Generator,
    r_range: tuple[float, float],
    speed_range: tuple[float, float],
    min_radius: float = 0.0,
) -> Array:
    r = rng.uniform(max(r_range[0], min_radius), r_range[1])
    angle = rng.uniform(0.0, 2.0 * np.pi)
    speed = rng.uniform(speed_range[0], speed_range[1])
    heading = rng.uniform(0.0, 2.0 * np.pi)
    return np.array(
        [r * np.cos(angle), r * np.sin(angle), speed * np.cos(heading), speed * np.sin(heading)]
    )


def generate_dataset(
    scenario: Scenario,
    n_train: int,
    n_test: int,
    duration: float = 8.0,
    dt_sample: float = 0.05,
    seed: int = 0,
    r_range: tuple[float, float] = (0.5, 4.0),
    speed_range: tuple[float, float] = (0.0, 0.5),
    substeps: int = 10,
) -> Dataset:
    """Integrate ground truth for n_train+n_test seeded trajectories.

    Each trajectory gets the derived seed (seed XOR index); membership in
    train/test is assigned per whole trajectory.  All trajectories run
    in one batched integration, one row each; where every trajectory
    sees its own flow (``noisy_flow``), those flows are stacked row by
    row into one field by :meth:`Scenario.batch_flow`.  Derivative labels
    come from the analytic right-hand side at every sample, evaluated in
    one vectorised call, and the integrator runs at h = dt_sample/substeps
    so label and rollout error stay far below learned-model error floors.
    """
    if n_train < 1 or n_test < 1:
        raise ConfigurationError("n_train and n_test must each be >= 1")
    n_total = n_train + n_test
    h = dt_sample / substeps
    traj_seeds = [int(seed) ^ i for i in range(n_total)]
    starts = np.stack(
        [
            draw_initial_state(
                np.random.default_rng(ts), r_range, speed_range, scenario.min_start_radius
            )
            for ts in traj_seeds
        ]
    )

    f = scenario.derivative_fn(scenario.batch_flow(traj_seeds))
    times, samples = integrate(f, starts, 0.0, duration, h, sample_every=substeps)
    derivs = f(samples, times[:, None])
    trajectories = [
        Trajectory(
            traj_id=f"{scenario.kind}-{i:03d}",
            scenario=scenario.kind,
            seed=traj_seeds[i],
            split="train" if i < n_train else "test",
            dt=dt_sample,
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
        "dt_sample": dt_sample,
        "seed": seed,
        "r_range": list(r_range),
        "speed_range": list(speed_range),
        "substeps": substeps,
    }
    return Dataset(trajectories, manifest)


def scenario_from_manifest(manifest: Mapping) -> Scenario:
    """Rebuild the generating system recorded in a dataset manifest."""
    return make_scenario(manifest["scenario"], params=manifest["params"])


# -- numeric field checks -----------------------------------------------------


def numerical_divergence(velocity_fn, x, y, t=0.0, spacing: float = 1e-4):
    """Central-difference divergence of a velocity field at given points."""
    ux_p = velocity_fn(x + spacing, y, t)[0]
    ux_m = velocity_fn(x - spacing, y, t)[0]
    uy_p = velocity_fn(x, y + spacing, t)[1]
    uy_m = velocity_fn(x, y - spacing, t)[1]
    return (ux_p - ux_m + uy_p - uy_m) / (2.0 * spacing)
