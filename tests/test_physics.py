import itertools
import json

import numpy as np
import pytest

from floatdyn import model as md
from floatdyn import physics as ph
from floatdyn.autodiff import ConfigurationError
from floatdyn.training import split_train_val

# frozen: exact rational RK4 step for y'=-y, y0=1, h=0.1 (72387/80000)
RK4_EXP_STEP = 0.9048375


class RigidVortex(ph.FlowField):
    """u = (-omega*y, omega*x); unsaturated rotation for small test cases."""

    def __init__(self, omega=1.0):
        self.omega = omega

    def velocity(self, x, y, t):
        return ph.Vec2(-self.omega * np.asarray(y, float), self.omega * np.asarray(x, float))


UNIT_BODY = ph.BodyProperties(mass=1.0)
FLUID = ph.make_scenario("steady_vortex").fluid  # rho 1000, area 0.05, eps 1e-6
LINEAR_ONLY = (0.0, 0.0, 0.0, 1.0)  # unit mass, unit linear drag: a = -v_rel


def accel_and_sigma(state, flow, fluid, coeffs, body=UNIT_BODY):
    """body_acceleration at t = 0 for constant coefficients, and the sigma it saw.

    With unit mass and zero added mass the acceleration is the force itself.
    """
    seen = []

    def coefficients(r, sigma):
        seen.append(sigma)
        return coeffs

    u = flow.velocity(state.x, state.y, 0.0)
    ax, ay = ph.body_acceleration(state, 0.0, u.x, u.y, coefficients, body, fluid)
    return ax, ay, seen[0]


# -- relative kinematics -------------------------------------------------------


def test_comoving_body_has_zero_relative_velocity():
    fluid = FLUID
    flow = RigidVortex(omega=2.0)
    u = flow.velocity(1.0, 0.5, 0.0)
    state = ph.State(1.0, 0.5, u.x, u.y)
    ax, ay, sigma = accel_and_sigma(state, flow, fluid, LINEAR_ONLY)
    assert -ax == 0.0 and -ay == 0.0
    assert sigma == fluid.eps


def test_pythagorean_relative_speed_in_still_fluid():
    fluid = FLUID
    state = ph.State(0.0, 0.0, 3.0, 4.0)
    _, _, sigma = accel_and_sigma(state, ph.ZeroFlow(), fluid, LINEAR_ONLY)
    assert sigma == pytest.approx(5.0 + 1e-6, abs=1e-15)


def test_rigid_vortex_relative_velocity_at_unit_point():
    fluid = FLUID
    state = ph.State(1.0, 0.0, 0.0, 0.0)
    ax, ay, sigma = accel_and_sigma(state, RigidVortex(omega=1.0), fluid, LINEAR_ONLY)
    assert -ax == pytest.approx(0.0, abs=0.0)
    assert -ay == pytest.approx(-1.0, abs=0.0)
    assert sigma == pytest.approx(1.0 + 1e-6, abs=1e-15)


# -- forces ---------------------------------------------------------------------


def test_zero_relative_velocity_gives_zero_forces():
    fluid = FLUID
    state = ph.State(0.0, 0.0, 0.0, 0.0)
    ax, ay, _ = accel_and_sigma(state, ph.ZeroFlow(), fluid, (36.0, 42.0, 1.2, 6.0))
    assert ax == 0.0 and ay == 0.0
    quadratic_x, _, _ = accel_and_sigma(state, ph.ZeroFlow(), fluid, (0.0, 0.0, 1.2, 0.0))
    _, linear_y, _ = accel_and_sigma(state, ph.ZeroFlow(), fluid, (0.0, 0.0, 0.0, 6.0))
    assert quadratic_x == 0.0 and linear_y == 0.0


def test_quadratic_drag_hand_value():
    fluid = ph.FluidProperties(rho=1000.0, area=0.1, eps=1e-300)  # sigma = 1: the eps -> 0 case
    state = ph.State(0.0, 0.0, 1.0, 0.0)
    ax, ay, sigma = accel_and_sigma(state, ph.ZeroFlow(), fluid, (0.0, 0.0, 1.0, 0.0))
    assert sigma == 1.0
    assert ax == pytest.approx(-50.0, abs=0.0)
    assert ay == 0.0


def test_linear_drag_hand_value():
    fluid = FLUID
    state = ph.State(0.0, 0.0, 0.0, -1.0)
    ax, ay, _ = accel_and_sigma(state, ph.ZeroFlow(), fluid, (0.0, 0.0, 0.0, 2.0))
    assert ax == 0.0
    assert ay == pytest.approx(2.0, abs=0.0)


def test_dissipativity_on_random_states():
    rng = np.random.default_rng(0)
    fluid = FLUID
    for _ in range(200):
        vr = rng.normal(size=2) * rng.uniform(0.0, 3.0)
        state = ph.State(0.0, 0.0, vr[0], vr[1])
        _, _, c_q, c_l = rng.uniform(0.0, [60.0, 60.0, 2.0, 10.0])
        quadratic = accel_and_sigma(state, ph.ZeroFlow(), fluid, (0.0, 0.0, c_q, 0.0))
        linear = accel_and_sigma(state, ph.ZeroFlow(), fluid, (0.0, 0.0, 0.0, c_l))
        total = accel_and_sigma(state, ph.ZeroFlow(), fluid, (0.0, 0.0, c_q, c_l))
        assert quadratic[0] * vr[0] + quadratic[1] * vr[1] <= 0.0
        assert linear[0] * vr[0] + linear[1] * vr[1] <= 0.0
        assert total[0] * vr[0] + total[1] * vr[1] <= 1e-12


# -- acceleration ----------------------------------------------------------------


def test_force_free_body_does_not_accelerate():
    body = ph.BodyProperties(mass=10.0)
    fluid = FLUID
    state = ph.State(1.0, 2.0, 0.0, 0.0)
    ax, ay, _ = accel_and_sigma(state, ph.ZeroFlow(), fluid, (36.0, 42.0, 1.2, 6.0), body)
    assert ax == 0.0 and ay == 0.0


def test_diagonal_effective_mass_inverse():
    body = ph.BodyProperties(mass=1.0, external_force=lambda state, t: ph.Vec2(10.0, 0.0))
    state = ph.State(0.0, 0.0, 0.0, 0.0)
    ax, ay, _ = accel_and_sigma(state, ph.ZeroFlow(), FLUID, (1.0, 0.0, 0.0, 0.0), body)
    assert ax == pytest.approx(5.0, abs=0.0)
    assert ay == 0.0


def test_nonpositive_effective_mass_rejected():
    state = ph.State(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ph.PhysicalValidityError):
        accel_and_sigma(state, ph.ZeroFlow(), FLUID, (-2.0, 0.0, 0.0, 0.0))


def test_acceleration_matches_dense_rollout_finite_difference():
    scenario = ph.make_scenario("steady_vortex")
    f = scenario.derivative_fn()
    s = np.array([1.2, -0.4, 0.3, 0.1])
    h = 1e-4
    _, samples = ph.integrate(f, s, 0.0, 2 * h, h)
    fd_acc = (samples[2, 2:] - samples[0, 2:]) / (2 * h)
    mid = ph.State(*samples[1])
    u = scenario.flow.velocity(mid.x, mid.y, h)
    ax, ay = ph.body_acceleration(mid, h, u.x, u.y, scenario.coeffs.at, scenario.body, scenario.fluid)
    assert abs(ax - fd_acc[0]) < 1e-6
    assert abs(ay - fd_acc[1]) < 1e-6


def test_rotating_frame_commutes_for_isotropic_added_mass():
    scenario = ph.make_scenario("steady_vortex", {"m_ax": 30.0, "m_ay": 30.0})
    f = scenario.derivative_fn()
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = rng.uniform(-2.0, 2.0, size=4)
        phi = rng.uniform(0.0, 2 * np.pi)
        c, sn = np.cos(phi), np.sin(phi)
        rot = np.array([[c, -sn], [sn, c]])
        a = f(s, 0.0)[2:]
        s_rot = np.concatenate([rot @ s[:2], rot @ s[2:]])
        a_rot = f(s_rot, 0.0)[2:]
        want = rot @ a
        assert np.allclose(a_rot, want, atol=1e-12)


@pytest.mark.parametrize("k", [0.84, 1.7])
def test_coefficient_gauge_is_invisible_without_a_known_force(k):
    # scaling c_q, c_l and both effective masses by one k leaves every
    # force-free acceleration unchanged; a known external force breaks it
    s = np.random.default_rng(21).uniform(-2.0, 2.0, size=(24, 4))
    for kind in ph.SCENARIO_KINDS:
        p = ph.make_scenario(kind).params
        mass = p["mass"]
        scaled = {
            "c_q": k * p["c_q"],
            "c_l": k * p["c_l"],
            "m_ax": k * (mass + p["m_ax"]) - mass,
            "m_ay": k * (mass + p["m_ay"]) - mass,
        }
        a = ph.make_scenario(kind).derivative_fn()(s, 0.7)[:, 2:]
        b = ph.make_scenario(kind, scaled).derivative_fn()(s, 0.7)[:, 2:]
        rel = np.max(np.abs(a - b)) / np.max(np.abs(a))
        if kind == "morison_wave":
            assert rel > 1e-3, kind
        else:
            assert rel <= 1e-12, (kind, rel)


# -- integrators -----------------------------------------------------------------


def test_rk4_zero_derivative_is_identity():
    s = np.array([1.0, 2.0, 3.0, 4.0])
    out = ph.rk4_step(lambda s, t: np.zeros_like(s), s, 0.0, 0.1)
    assert np.array_equal(out, s)


def test_rk4_exponential_decay_single_step():
    out = ph.rk4_step(lambda y, t: -y, np.array([1.0]), 0.0, 0.1)
    assert out[0] == pytest.approx(RK4_EXP_STEP, abs=1e-15)
    assert out[0] == pytest.approx(np.exp(-0.1), abs=1e-7)


def test_rk4_halving_step_shrinks_error_sixteenfold():
    def endpoint_error(h):
        _, ys = ph.integrate(lambda y, t: -y, np.array([1.0]), 0.0, 1.0, h)
        return abs(ys[-1, 0] - np.exp(-1.0))

    ratio = endpoint_error(0.1) / endpoint_error(0.05)
    assert 12.0 < ratio < 20.0  # ~16x for a 4th-order method


def test_rk4_empirical_order_on_exponential():
    errors = []
    for h in (0.2, 0.1, 0.05):
        _, ys = ph.integrate(lambda y, t: -y, np.array([1.0]), 0.0, 1.0, h)
        errors.append(abs(ys[-1, 0] - np.exp(-1.0)))
    slope = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(errors), 1)[0]
    assert slope >= 3.9


def test_rk4_empirical_order_on_steady_vortex_self_convergence():
    scenario = ph.make_scenario("steady_vortex")
    f = scenario.derivative_fn()
    s0 = np.array([1.0, 0.5, 0.2, -0.1])

    def endpoint(h):
        _, ys = ph.integrate(f, s0, 0.0, 2.0, h)
        return ys[-1]

    # successive-difference order estimate
    e1 = np.linalg.norm(endpoint(0.04) - endpoint(0.02))
    e2 = np.linalg.norm(endpoint(0.02) - endpoint(0.01))
    assert np.log2(e1 / e2) >= 3.9


def test_integrate_two_sample_contract():
    f = lambda y, t: -y
    times, ys = ph.integrate(f, np.array([1.0]), 0.0, 0.1, 0.1, sample_every=1)
    assert len(times) == 2
    assert np.array_equal(ys[1], ph.rk4_step(f, np.array([1.0]), 0.0, 0.1))


def test_vortex_rollout_speed_stays_bounded():
    scenario = ph.make_scenario("steady_vortex")
    f = scenario.derivative_fn()
    s0 = np.array([2.0, 0.0, 0.4, 0.3])
    _, ys = ph.integrate(f, s0, 0.0, 8.0, 0.005, sample_every=10)
    speeds = np.hypot(ys[:, 2], ys[:, 3])
    # drag opposes relative velocity, so speed can never exceed start + flow peak
    bound = np.hypot(0.4, 0.3) + scenario.flow.peak_speed() + 1e-9
    assert speeds.max() <= bound


def test_integrate_self_convergence_on_vortex():
    scenario = ph.make_scenario("steady_vortex")
    f = scenario.derivative_fn()
    s0 = np.array([1.0, 0.0, 0.0, 0.2])
    _, coarse = ph.integrate(f, s0, 0.0, 8.0, 0.01, sample_every=100)
    _, fine = ph.integrate(f, s0, 0.0, 8.0, 0.001, sample_every=1000)
    assert np.linalg.norm(coarse[-1, :2] - fine[-1, :2]) < 1e-6


def test_integration_error_carries_time_of_failure():
    def f(y, t):
        return np.full_like(y, np.nan) if t > 0.5 else -y

    with pytest.raises(ph.IntegrationError) as err:
        ph.integrate(f, np.array([1.0]), 0.0, 1.0, 0.1)
    # the step starting at 0.5 evaluates its midpoint stage at 0.55
    assert err.value.time == pytest.approx(0.5, abs=1e-9)
    assert err.value.stage == 2

    # one input per stage: f fails on its (4 * 5 + stage)-th call, that
    # stage of the step starting at 0.5
    for stage in (1, 2, 3, 4):
        calls = []

        def g(y, t, calls=calls, stage=stage):
            calls.append(t)
            return np.full_like(y, np.nan) if len(calls) == 4 * 5 + stage else -y

        with pytest.raises(ph.IntegrationError) as err:
            ph.integrate(g, np.array([1.0]), 0.0, 1.0, 0.1)
        assert err.value.time == pytest.approx(0.5, abs=1e-9)
        assert err.value.stage == stage
        assert f"stage {stage}" in str(err.value)


def test_integrate_rejects_nondividing_step():
    with pytest.raises(ConfigurationError):
        ph.integrate(lambda y, t: -y, np.array([1.0]), 0.0, 1.0, 0.3)
    with pytest.raises(ConfigurationError):
        ph.integrate(lambda y, t: -y, np.array([1.0]), 0.0, 1.0, 0.1, sample_every=3)


def test_integrate_rejects_nonpositive_step():
    for h in (0.0, -0.1, float("nan")):
        with pytest.raises(ConfigurationError, match="step size must be > 0"):
            ph.integrate(lambda y, t: -y, np.array([1.0]), 0.0, 1.0, h)


# -- scenarios --------------------------------------------------------------------


def test_steady_vortex_is_counterclockwise_with_saturation():
    scenario = ph.make_scenario("steady_vortex")
    u = scenario.flow.velocity(1.0, 0.0, 0.0)
    assert u.x == 0.0
    # grad-perp convention: psi = omega/2 r^2/(1+r^2/r_core^2) spins +y at (1, 0)
    assert u.y == pytest.approx(1.0 / (1.0 + 1.0 / 9.0) ** 2, abs=1e-15)
    assert u.y > 0.0


def test_steady_vortex_unsaturated_limit_matches_rigid_rotation():
    scenario = ph.make_scenario("steady_vortex", {"r_core": 1e9})
    u = scenario.flow.velocity(1.0, 0.0, 0.0)
    assert u.x == pytest.approx(0.0, abs=1e-15)
    assert u.y == pytest.approx(1.0, abs=1e-9)


def test_time_varying_vortex_modulates_omega():
    scenario = ph.make_scenario("time_varying_vortex")
    flow = scenario.flow
    u0 = flow.velocity(1.0, 0.0, 0.0)
    uq = flow.velocity(1.0, 0.0, 2.5)  # quarter period: sin = 1
    assert uq.y == pytest.approx(1.3 * u0.y, rel=1e-12)


def test_obstacle_flow_radial_velocity_vanishes_on_cylinder():
    scenario = ph.make_scenario("obstacle_flow")
    flow = scenario.flow
    for theta in np.linspace(0.0, 2 * np.pi, 17):
        x, y = np.cos(theta), np.sin(theta)
        u = flow.velocity(x, y, 0.0)
        assert abs(u.x * x + u.y * y) < 1e-9


def test_all_scenarios_finite_at_origin():
    for kind in ph.SCENARIO_KINDS:
        scenario = ph.make_scenario(kind)
        flow = scenario.trajectory_flow(123) if scenario.per_trajectory_flow else scenario.flow
        u = flow.velocity(0.0, 0.0, 0.3)
        assert np.isfinite(u.x) and np.isfinite(u.y), kind


def _flow(kind):
    """A scenario's flow, or for ``learned`` an fhnn model's flow at init."""
    scenario = ph.make_scenario("steady_vortex" if kind == "learned" else kind)
    if kind == "learned":
        return md.DynamicsModel.initialize("fhnn", seed=3, body=scenario.body, fluid=scenario.fluid).flow()
    return scenario.trajectory_flow(7) if scenario.per_trajectory_flow else scenario.flow


@pytest.mark.parametrize(
    "kind,grid",
    [
        ("steady_vortex", (-2.0, 2.0)),
        ("time_varying_vortex", (-2.0, 2.0)),
        ("noisy_flow", (-2.0, 2.0)),
        ("obstacle_flow", (1.5, 3.5)),
        ("morison_wave", (-2.0, 2.0)),
        ("learned", (-2.0, 2.0)),
    ],
)
def test_analytic_providers_are_numerically_divergence_free(kind, grid):
    flow = _flow(kind)
    spacing = 1e-4
    xs, ys = np.meshgrid(np.linspace(*grid, 20), np.linspace(*grid, 20))
    div = ph.numerical_divergence(flow.velocity, xs, ys, t=0.4, spacing=spacing)
    u = flow.velocity(xs, ys, 0.4)
    assert div.shape == u.x.shape == u.y.shape == xs.shape
    speed_scale = float(np.max(np.hypot(u.x, u.y)))
    tol = 1e-6 * speed_scale / spacing + 1e-12
    assert np.max(np.abs(div)) < tol


def test_streamfunction_consistent_with_velocity():
    h = 1e-6
    points = [(0.7, -0.3), (1.5, 2.0), (-2.2, 0.4)]
    for flow, (x, y) in itertools.product([_flow("steady_vortex"), _flow("learned")], points):
        dpsi_dx = (flow.streamfunction(x + h, y, 0.0) - flow.streamfunction(x - h, y, 0.0)) / (2 * h)
        dpsi_dy = (flow.streamfunction(x, y + h, 0.0) - flow.streamfunction(x, y - h, 0.0)) / (2 * h)
        u = flow.velocity(x, y, 0.0)
        assert u.x == pytest.approx(-dpsi_dy, abs=1e-7)
        assert u.y == pytest.approx(dpsi_dx, abs=1e-7)


def test_morison_forcing_hand_values():
    scenario = ph.make_scenario("morison_wave")
    forcing = scenario.body.external_force
    # quarter period: u_w = (0.3, 0), du_w/dt = 0
    state = ph.State(0.0, 0.0, 0.0, 0.0)
    f = forcing(state, 1.0)
    c = 0.5 * 1000.0 * 1.0 * 0.05
    assert f.x == pytest.approx(c * 0.3 * 0.3, rel=1e-12)
    assert f.y == 0.0
    # t=0: wave velocity zero, only the inertial kick remains
    f0 = forcing(state, 0.0)
    assert f0.x == pytest.approx(1000.0 * 1.0 * 0.05 * 0.3 * 2 * np.pi / 4.0, rel=1e-12)


def test_unknown_scenario_and_parameter_rejected():
    with pytest.raises(ConfigurationError):
        ph.make_scenario("tsunami")
    with pytest.raises(ConfigurationError):
        ph.make_scenario("steady_vortex", {"vorticity": 2.0})
    with pytest.raises(ConfigurationError, match="params must be a mapping"):
        ph.make_scenario("steady_vortex", [("omega", 1.0)])
    bad_values = [
        ("steady_vortex", "omega", "abc"),
        ("steady_vortex", "omega", [1.0]),
        ("noisy_flow", "n_modes", 2.5),
        ("steady_vortex", "radial_added_mass", "false"),
        ("steady_vortex", "radial_added_mass", 1),
        ("steady_vortex", "omega", True),
        ("steady_vortex", "omega", np.True_),
        ("noisy_flow", "n_modes", False),
    ]
    for kind, key, value in bad_values:
        with pytest.raises(ConfigurationError, match=f"parameter '{key}'"):
            ph.make_scenario(kind, {key: value})
    manifest = ph.generate_dataset(ph.make_scenario("steady_vortex"), 1, 1, duration=0.1).manifest
    for key in ("scenario", "params"):
        with pytest.raises(ConfigurationError, match=f"lacks key '{key}'"):
            ph.scenario_from_manifest({k: v for k, v in manifest.items() if k != key})


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("time_varying_vortex", "period", 0.0),
        ("morison_wave", "wave_period", 0.0),
        ("steady_vortex", "r_core", 0.0),
        ("noisy_flow", "k_min", 2.0),  # above the default k_max = 1
        ("noisy_flow", "n_modes", -1),
        ("obstacle_flow", "radius", -1.0),
    ],
)
def test_out_of_range_scenario_parameter_is_refused_naming_it(kind, key, value):
    # each would otherwise fail later with a bare numpy or Python error, or not at all
    with pytest.raises(ConfigurationError, match=f"'{key}'"):
        ph.make_scenario(kind, {key: value})


def test_obstacle_flow_takes_no_margin():
    # a margin was recorded but never read: 5.0 gave bitwise the default data
    with pytest.raises(ConfigurationError, match="'margin'"):
        ph.make_scenario("obstacle_flow", {"margin": 1.2})
    manifest = ph.generate_dataset(ph.make_scenario("obstacle_flow"), 1, 1, duration=0.1).manifest
    assert "margin" not in manifest["params"]
    assert manifest["dt_sample"] == ph.DT_SAMPLE


def test_radial_added_mass_field_roundtrip():
    assert ph.make_scenario("steady_vortex", {"radial_added_mass": np.False_}).coeffs.radial is False
    scenario = ph.make_scenario("steady_vortex", {"radial_added_mass": True})
    manifest = ph.generate_dataset(scenario, 1, 1, duration=0.1).manifest
    rebuilt = ph.scenario_from_manifest(manifest).coeffs
    m_ax, m_ay, _, _ = rebuilt.at(np.array([0.0, 2.0]), 0.1)
    assert m_ax[0] == pytest.approx(36.0 * 1.1)
    assert m_ax[1] == pytest.approx(36.0 * (1.0 + 0.1 * np.exp(-2.0)))
    assert m_ay == 42.0


# -- datasets ---------------------------------------------------------------------


def test_dataset_counts_and_sample_length():
    scenario = ph.make_scenario("steady_vortex")
    ds = ph.generate_dataset(scenario, n_train=3, n_test=2, duration=1.0, seed=1)
    assert len(ds.trajectories) == 5
    assert all(len(tr.times) == 21 for tr in ds.trajectories)
    assert len(ds.split("train")) == 3
    assert len(ds.split("test")) == 2


def test_dataset_is_bitwise_deterministic(tmp_path):
    scenario = ph.make_scenario("noisy_flow")
    a = ph.generate_dataset(scenario, 2, 1, duration=0.5, seed=9)
    b = ph.generate_dataset(scenario, 2, 1, duration=0.5, seed=9)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.save(pa)
    b.save(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_split_membership_is_exclusive():
    scenario = ph.make_scenario("steady_vortex")
    ds = ph.generate_dataset(scenario, 4, 2, duration=0.5, seed=3)
    train_ids = {t.traj_id for t in ds.split("train")}
    test_ids = {t.traj_id for t in ds.split("test")}
    assert not (train_ids & test_ids)
    assert len(train_ids | test_ids) == 6


def test_trajectories_keep_index_order_past_999():
    # ids gain a fourth digit at 1000, where string order and index order part
    scenario = ph.make_scenario("steady_vortex")
    ds = ph.generate_dataset(scenario, 1002, 1, duration=0.05, seed=2)
    train = ds.split("train")
    assert [t.traj_id for t in train] == [f"steady_vortex-{i:03d}" for i in range(1002)]
    assert [t.traj_id for t in ds.split("test")] == ["steady_vortex-1002"]
    _, val = split_train_val(train, 8)
    assert [t.traj_id for t in val] == [f"steady_vortex-{i}" for i in range(994, 1002)]


@pytest.mark.parametrize("kind", ph.SCENARIO_KINDS)
def test_derivative_labels_match_analytic_rhs(kind):
    scenario = ph.make_scenario(kind)
    ds = ph.generate_dataset(scenario, 1, 1, duration=0.5, seed=5)
    tr = ds.trajectories[0]
    f = scenario.derivative_fn(scenario.trajectory_flow(tr.seed))
    for k in (0, 5, 10):
        want = f(tr.states[k], tr.times[k])
        assert np.allclose(tr.derivs[k], want, atol=0.0)


def test_batched_noisy_flow_dataset_equals_per_trajectory_integration():
    scenario = ph.make_scenario("noisy_flow")
    ds = ph.generate_dataset(scenario, 3, 2, duration=0.5, seed=6)
    for tr in ds.trajectories:
        f = scenario.derivative_fn(scenario.trajectory_flow(tr.seed))
        times, states = ph.integrate(f, tr.states[:1], 0.0, 0.5, 0.005, sample_every=10)
        derivs = np.stack([f(states[k], times[k]) for k in range(len(times))])
        assert np.array_equal(tr.times, times)
        assert np.array_equal(tr.states, states[:, 0, :])
        assert np.array_equal(tr.derivs, derivs[:, 0, :])


def test_noisy_flow_differs_per_trajectory_but_is_seeded():
    scenario = ph.make_scenario("noisy_flow")
    f1 = scenario.trajectory_flow(11)
    f2 = scenario.trajectory_flow(12)
    f1b = scenario.trajectory_flow(11)
    u1 = f1.velocity(1.0, 0.5, 0.0)
    u2 = f2.velocity(1.0, 0.5, 0.0)
    u1b = f1b.velocity(1.0, 0.5, 0.0)
    assert u1.x != u2.x
    assert u1.x == u1b.x and u1.y == u1b.y


def test_noisy_perturbation_amplitude_is_bounded():
    scenario = ph.make_scenario("noisy_flow")
    flow = scenario.trajectory_flow(21)
    base = scenario.flow
    xs = np.linspace(-3, 3, 40)
    X, Y = np.meshgrid(xs, xs)
    up = flow.velocity(X.ravel(), Y.ravel(), 0.0)
    ub = base.velocity(X.ravel(), Y.ravel(), 0.0)
    pert = np.hypot(up.x - ub.x, up.y - ub.y)
    cap = 0.05 * base.peak_speed() + 1e-12
    assert pert.max() <= cap


def test_obstacle_starts_sampled_outside_obstacle():
    scenario = ph.make_scenario("obstacle_flow")
    ds = ph.generate_dataset(scenario, 6, 2, duration=0.5, seed=2)
    for tr in ds.trajectories:
        r0 = np.hypot(tr.states[0, 0], tr.states[0, 1])
        assert r0 >= 1.5


def test_dataset_jsonl_roundtrip(tmp_path):
    scenario = ph.make_scenario("steady_vortex")
    ds = ph.generate_dataset(scenario, 2, 1, duration=0.5, seed=4)
    jsonl = tmp_path / "data.jsonl"
    manifest = tmp_path / "manifest.json"
    ds.save(jsonl, manifest)
    back = ph.Dataset.load(jsonl, manifest)
    assert back.manifest == json.loads(json.dumps(ds.manifest))
    for a, b in zip(ds.trajectories, back.trajectories):
        assert a.traj_id == b.traj_id and a.split == b.split
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.derivs, b.derivs)
    rebuilt = ph.scenario_from_manifest(back.manifest)
    assert rebuilt.kind == "steady_vortex"
    assert rebuilt.coeffs.describe() == scenario.coeffs.describe()


def test_dataset_load_refuses_a_missing_manifest(tmp_path):
    # without a manifest path the manifest is empty; a path that names no
    # file is refused, not read as an empty manifest
    scenario = ph.make_scenario("steady_vortex")
    ph.generate_dataset(scenario, 1, 1, duration=0.5, seed=4).save(tmp_path / "data.jsonl")
    assert ph.Dataset.load(tmp_path / "data.jsonl").manifest == {}
    with pytest.raises(ConfigurationError, match="manifest .*missing.json does not exist"):
        ph.Dataset.load(tmp_path / "data.jsonl", tmp_path / "missing.json")


def test_dataset_load_names_a_missing_key_and_its_line(tmp_path):
    scenario = ph.make_scenario("steady_vortex")
    ph.generate_dataset(scenario, 1, 1, duration=0.5, seed=4).save(tmp_path / "data.jsonl")
    lines = (tmp_path / "data.jsonl").read_text().splitlines()

    def drop_dt(record):
        del record["dt"]

    def ragged_states(record):  # the second state has 3 components
        record["states"][1] = record["states"][1][:3]

    for corrupt, message in [(drop_dt, "line 2: .*'dt'"), (ragged_states, "line 2: ")]:
        record = json.loads(lines[1])
        corrupt(record)
        (tmp_path / "data.jsonl").write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
        with pytest.raises(ConfigurationError, match=message):
            ph.Dataset.load(tmp_path / "data.jsonl")
    (tmp_path / "data.jsonl").write_text("\n".join([lines[0], lines[1][:-1]]) + "\n")
    with pytest.raises(ConfigurationError, match="line 2: not JSON"):
        ph.Dataset.load(tmp_path / "data.jsonl")


@pytest.mark.parametrize("key", ["states", "derivs"])
def test_dataset_load_rejects_non_finite_values(tmp_path, key):
    scenario = ph.make_scenario("steady_vortex")
    ph.generate_dataset(scenario, 1, 1, duration=0.5, seed=4).save(tmp_path / "data.jsonl")
    lines = (tmp_path / "data.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    record[key][3][2] = float("nan") if key == "states" else float("inf")
    (tmp_path / "data.jsonl").write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
    with pytest.raises(ConfigurationError, match="line 2: .*non-finite"):
        ph.Dataset.load(tmp_path / "data.jsonl")


def test_trajectory_rejects_bad_shapes_and_nonpositive_dt():
    times = 0.05 * np.arange(3)
    states = np.zeros((3, 4))
    with pytest.raises(ConfigurationError, match="states must be"):
        ph.Trajectory("a", "steady_vortex", 0, "train", 0.05, times, np.zeros((3, 3)))
    with pytest.raises(ConfigurationError, match="labels"):
        ph.Trajectory("a", "steady_vortex", 0, "train", 0.05, times, states, np.zeros((2, 4)))
    for dt in (0.0, -0.05):
        # samples spaced at dt, so only the sign of dt is wrong
        with pytest.raises(ConfigurationError, match="dt must be > 0"):
            ph.Trajectory("a", "steady_vortex", 0, "train", dt, dt * np.arange(3), states)
