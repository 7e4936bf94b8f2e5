import collections
import dataclasses
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from floatdyn import autodiff as ad
from floatdyn import model as md
from floatdyn import physics as ph
from floatdyn import training as tr
from floatdyn.autodiff import ConfigurationError
from oracles import fd_gradient, grad_mismatches, plugin_truth_model, sample_coords

VORTEX = ph.make_scenario("steady_vortex")

# -- cap map -------------------------------------------------------------------


def test_cap_map_saturates_to_caps():
    caps = md.CAPS
    hi = np.asarray(md.cap_map(np.full((1, 4), 1e3), caps))[0]
    assert np.all(hi <= caps)
    assert np.all(caps - hi < 1e-5)
    # and fully saturated (to float precision) far out
    far = np.asarray(md.cap_map(np.full((1, 4), 1e6), caps))[0]
    assert np.all(caps - far < 1e-9)


def test_cap_map_zero_input_value():
    # frozen oracle: 2*sigmoid(ln(2)/2) = 2/(1 + 2**-0.5)
    out = np.asarray(md.cap_map(np.array([[0.0]]), np.array([2.0])))[0, 0]
    assert out == pytest.approx(1.1715728752538097, abs=1e-12)


def test_cap_map_floor_is_half_the_cap():
    # softplus(z) >= 0 and sigmoid(0) = 1/2, so the image is [C/2, C)
    assert np.array_equal(md.cap_map(-1e3, md.CAPS), md.CAPS / 2)


def test_cap_map_outputs_strictly_inside_zero_cap():
    # strict insideness holds wherever float64 can resolve 1 - sigmoid
    caps = md.CAPS
    for z in (-1e8, -50.0, 0.0, 50.0):
        out = np.asarray(md.cap_map(np.full((1, 4), z), caps))[0]
        assert np.all(out > 0.0) and np.all(out < caps), z


def test_cap_map_is_strictly_increasing():
    # strictness checked where float64 resolves the increments
    zs = np.linspace(-15.0, 15.0, 151)[:, None]
    out = np.asarray(md.cap_map(np.repeat(zs, 4, axis=1), md.CAPS))
    assert np.all(np.diff(out, axis=0) > 0.0)


@given(
    cap=st.floats(0.1, 100.0),
    # z / cap, kept where float64 resolves 1 - sigmoid(softplus(z) / cap)
    u=st.lists(st.floats(-1e6, 30.0), min_size=2, max_size=8),
)
def test_cap_map_lies_inside_zero_cap_and_is_monotone(cap, u):
    z = np.sort(np.asarray(u)) * cap
    out = np.asarray(md.cap_map(z[:, None], np.array([cap])))[:, 0]
    assert np.all(out > 0.0) and np.all(out < cap)
    assert np.all(np.diff(out) >= 0.0)


def test_coefficients_identical_under_state_rotation():
    scenario = ph.make_scenario("steady_vortex")
    m = md.DynamicsModel.initialize("fhnn", seed=3, body=scenario.body, fluid=scenario.fluid)
    rng = np.random.default_rng(8)
    flow = scenario.flow  # radially symmetric, so (r, sigma) are angle-free
    for _ in range(10):
        s = rng.uniform(-2, 2, size=4)
        phi = rng.uniform(0, 2 * np.pi)
        c, sn = np.cos(phi), np.sin(phi)
        rot = np.array([[c, -sn], [sn, c]])
        s_rot = np.concatenate([rot @ s[:2], rot @ s[2:]])

        def coeffs_of(state):
            # the (r, sigma) features the equations of motion hand the net
            seen = []

            def record(r, sigma):
                seen.append([r, sigma])
                return 0.0, 0.0, 0.0, 0.0

            u = flow.velocity(state[0], state[1], 0.0)
            ph.body_acceleration(ph.State(*state), 0.0, u.x, u.y, record, m.body, m.fluid)
            feats = np.array(seen)
            return np.asarray(md.coefficient_net(m.params, feats, m.descriptor))[0]

        assert np.allclose(coeffs_of(s), coeffs_of(s_rot), rtol=0.0, atol=1e-12)


# -- stream_eval -----------------------------------------------------------------


def test_stream_eval_zero_weights_is_constant_bias():
    desc = md.ModelDescriptor("fhnn", 0)
    params = md.init_params(desc)
    for name in params.names():
        params[name] = np.zeros_like(params[name])
    params["stream.b1"] = np.full(64, 0.0)
    params[f"stream.b{len(desc.hidden)}"] = np.array([2.5])
    ev = md.stream_eval(params, np.array([0.3, -1.0]), np.array([0.7, 0.2]), desc)
    assert np.allclose(ev.psi, 2.5, atol=0.0)
    assert np.all(ev.gx == 0.0) and np.all(ev.gy == 0.0)
    assert np.all(ev.hxx == 0.0) and np.all(ev.hxy == 0.0) and np.all(ev.hyy == 0.0)


@pytest.mark.parametrize("variant", ["fhnn", "shallow", "relu"])
def test_stream_gradients_match_finite_differences(variant):
    desc = md.ModelDescriptor(variant, 5)
    params = md.init_params(desc)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2.0, 2.0, size=(12, 2))
    h = 1e-4

    def psi(x, y):
        return np.asarray(md.stream_eval(params, x, y, desc, order=1).psi)

    ev = md.stream_eval(params, pts[:, 0], pts[:, 1], desc)
    fd_gx = (psi(pts[:, 0] + h, pts[:, 1]) - psi(pts[:, 0] - h, pts[:, 1])) / (2 * h)
    fd_gy = (psi(pts[:, 0], pts[:, 1] + h) - psi(pts[:, 0], pts[:, 1] - h)) / (2 * h)
    assert np.allclose(ev.gx, fd_gx, rtol=1e-6, atol=1e-9)
    assert np.allclose(ev.gy, fd_gy, rtol=1e-6, atol=1e-9)

    if variant == "relu":
        # piecewise-linear psi: the structural Hessian is zero a.e.
        assert np.all(np.asarray(ev.hxx) == 0.0)
        assert np.all(np.asarray(ev.hxy) == 0.0)
        return
    p0 = psi(pts[:, 0], pts[:, 1])
    fd_hxx = (psi(pts[:, 0] + h, pts[:, 1]) - 2 * p0 + psi(pts[:, 0] - h, pts[:, 1])) / h**2
    fd_hyy = (psi(pts[:, 0], pts[:, 1] + h) - 2 * p0 + psi(pts[:, 0], pts[:, 1] - h)) / h**2
    fd_hxy = (
        psi(pts[:, 0] + h, pts[:, 1] + h)
        - psi(pts[:, 0] + h, pts[:, 1] - h)
        - psi(pts[:, 0] - h, pts[:, 1] + h)
        + psi(pts[:, 0] - h, pts[:, 1] - h)
    ) / (4 * h**2)
    assert np.allclose(ev.hxx, fd_hxx, atol=1e-4)
    assert np.allclose(ev.hyy, fd_hyy, atol=1e-4)
    assert np.allclose(ev.hxy, fd_hxy, atol=1e-4)


def test_stream_hessian_equals_jacobian_of_gradient():
    desc = md.ModelDescriptor("fhnn", 7)
    params = md.init_params(desc)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.5, 1.5, size=(8, 2))
    h = 1e-5

    def grad(x, y):
        ev = md.stream_eval(params, x, y, desc, order=1)
        return np.asarray(ev.gx), np.asarray(ev.gy)

    ev = md.stream_eval(params, pts[:, 0], pts[:, 1], desc)
    dgx_dy = (grad(pts[:, 0], pts[:, 1] + h)[0] - grad(pts[:, 0], pts[:, 1] - h)[0]) / (2 * h)
    dgy_dx = (grad(pts[:, 0] + h, pts[:, 1])[1] - grad(pts[:, 0] - h, pts[:, 1])[1]) / (2 * h)
    assert np.allclose(ev.hxy, dgx_dy, atol=1e-6)
    assert np.allclose(ev.hxy, dgy_dx, atol=1e-6)


def test_learned_velocity_field_is_divergence_free_for_any_weights():
    for seed in range(3):
        desc = md.ModelDescriptor("fhnn", seed)
        params = md.init_params(desc)

        def velocity(x, y, t=0.0):
            ev = md.stream_eval(params, x, y, desc, order=1)
            u = ev.velocity()
            return np.asarray(u.x), np.asarray(u.y)

        xs, ys = np.meshgrid(np.linspace(-2, 2, 20), np.linspace(-2, 2, 20))
        div = ph.numerical_divergence(velocity, xs.ravel(), ys.ravel(), spacing=1e-4)
        assert np.max(np.abs(div)) < 1e-6


# -- the fused stream node ---------------------------------------------------------

# the stream networks of the fhnn and relu variants, keyed by activation
STREAM_DESCRIPTORS = {
    "tanh": md.ModelDescriptor("fhnn", 3),
    "relu": md.ModelDescriptor("relu", 3),
}


def _stream_params(desc, rng):
    """The stream tensors of a fresh init, perturbed so biases are nonzero."""
    params = md.init_params(desc)
    return {
        name: params[name] + 0.1 * rng.normal(size=params[name].shape)
        for name in params.names()
        if name.startswith("stream.")
    }


def _jet(ev, order):
    fields = ("psi", "gx", "gy", "hxx", "hxy", "hyy")[: 3 * order]
    return [getattr(ev, f) for f in fields]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_stream_node_vjp_matches_finite_differences(activation, order):
    desc = STREAM_DESCRIPTORS[activation]
    rng = np.random.default_rng(17)
    params = _stream_params(desc, rng)
    x0, y0 = rng.uniform(-1.5, 1.5, size=(2, 7))
    weights = rng.normal(size=(3 * order, 7))

    def f(work):
        ev = md.stream_eval(work, work["x"], work["y"], desc, order=order)
        return float(sum(np.sum(w * np.asarray(c)) for w, c in zip(weights, _jet(ev, order))))

    tape = ad.Tape()
    leaves = {name: tape.leaf(v) for name, v in params.items()}
    leaves["x"], leaves["y"] = tape.leaf(x0), tape.leaf(y0)
    ev = md.stream_eval(leaves, leaves["x"], leaves["y"], desc, order=order)
    root = sum(ad.vsum(w * c) for w, c in zip(weights, _jet(ev, order)))
    ad.backward(tape, root)
    got = ad.parameter_gradients(tape, leaves)
    at = {**params, "x": x0, "y": y0}
    want = fd_gradient(f, at, coords=sample_coords(at, np.random.default_rng(19), per_tensor=64))
    bad = grad_mismatches(got, want, rel_tol=1e-5, abs_floor=1e-9)
    assert not bad, bad


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("variant", md.VARIANTS)
def test_list_states_give_the_array_result_bitwise(variant):
    m = md.DynamicsModel.initialize(variant, seed=1, body=VORTEX.body, fluid=VORTEX.fluid)
    s = np.random.default_rng(4).uniform(-2.0, 2.0, size=(3, 4))
    for state in (s, s[0]):
        assert _same_bits(m.derivative(state.tolist(), 0.3), m.derivative(state, 0.3))


@pytest.mark.parametrize("variant", md.VARIANTS)
@given(
    seed=st.integers(0, 2**16),
    rows=st.integers(0, 8),  # 0 stands for the single (4,) state
    data_seed=st.integers(0, 2**16),
)
def test_tape_mode_forward_equals_numpy_mode_bitwise(variant, seed, rows, data_seed):
    # numpy mode leaves the tape layer after one type test; what it computes
    # must still be what the tape records
    m = md.DynamicsModel.initialize(variant, seed=seed, body=VORTEX.body, fluid=VORTEX.fluid)
    s = np.random.default_rng(data_seed).uniform(-2.0, 2.0, size=(rows, 4) if rows else (4,))

    tape = ad.Tape()
    leaves = m.params.as_leaves(tape)
    assert _same_bits(m.derivative(s, 0.3, params=leaves).value, m.derivative(s, 0.3))
    # Var states go through the same formulas
    d = m.derivative(tape.leaf(s), 0.3, params=leaves)
    assert _same_bits(d.value, m.derivative(s, 0.3))
    if not m.descriptor.learns_flow:
        return
    for order in (1, 2):
        ev_tape = md.stream_eval(leaves, s[..., 0], s[..., 1], m.descriptor, order=order)
        ev_np = md.stream_eval(m.params, s[..., 0], s[..., 1], m.descriptor, order=order)
        for c_tape, c_np in zip(_jet(ev_tape, order), _jet(ev_np, order)):
            assert _same_bits(c_tape.value, c_np)


def _floatdyn_calls(fn) -> list[str]:
    """Names of the Python functions inside floatdyn that ``fn()`` calls, by
    sys.setprofile: a noise-free counterpart of speed."""
    package = str(Path(md.__file__).parent)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


# Python calls inside floatdyn per numpy-mode derivative on (4, 4) states, the
# counterpart of rollout speed as tape nodes per step is of training speed.
# 169 and 63 while every op built operand lists and converted each operand
# through helpers before it found no Var; 72 and 21 while the parameters were
# read through a checking store and each op called a named isinstance.
NUMPY_MODE_CALL_BUDGET = {"fhnn": 56, "neural_ode": 15}


@pytest.mark.parametrize("variant", sorted(NUMPY_MODE_CALL_BUDGET))
def test_numpy_mode_derivative_stays_within_its_call_budget(variant):
    m = md.DynamicsModel.initialize(variant, seed=3, body=VORTEX.body, fluid=VORTEX.fluid)
    s = np.random.default_rng(0).uniform(-2.0, 2.0, size=(4, 4))
    m.derivative(s, 0.0)  # fills the per-network caches
    calls = _floatdyn_calls(lambda: m.derivative(s, 0.0))
    assert len(calls) <= NUMPY_MODE_CALL_BUDGET[variant], collections.Counter(calls)


# Python calls inside floatdyn per tape-mode fhnn training step (a fresh tape
# and its leaves, training_losses, backward and parameter_gradients), whatever
# the row count: 4,584 while a Var read its value through a property and each
# op called a named isinstance; 3,224 while the loss also took one RK4 step.
TAPE_STEP_CALL_BUDGET = 917


def test_tape_mode_training_step_stays_within_its_call_budget():
    m = md.DynamicsModel.initialize("fhnn", seed=3, body=VORTEX.body, fluid=VORTEX.fluid)
    rng = np.random.default_rng(0)
    states = rng.uniform(-2.0, 2.0, size=(16, 4))
    nexts = states + 0.01 * rng.normal(size=states.shape)
    derivs = rng.normal(size=states.shape)
    times = np.zeros(16)

    def step():
        tape = ad.Tape()
        leaves = m.params.as_leaves(tape)
        total, _ = tr.training_losses(m, states, nexts, derivs, times, 0.05, tr.LossWeights(), params=leaves)
        ad.backward(tape, total)
        ad.parameter_gradients(tape, leaves)

    step()  # fills the per-network caches
    calls = _floatdyn_calls(step)
    assert len(calls) <= TAPE_STEP_CALL_BUDGET, collections.Counter(calls).most_common(10)


@pytest.mark.parametrize("order, limit", [(1, 4), (2, 7)])
def test_stream_eval_records_one_node_plus_columns(order, limit):
    desc = md.ModelDescriptor("fhnn", 1)
    params = md.init_params(desc)
    tape = ad.Tape()
    leaves = params.as_leaves(tape)
    x = np.array([0.2, -0.4])
    if order == 1:
        x = tape.leaf(x)  # Var positions, which the order-1 jet differentiates
    before = len(tape)
    md.stream_eval(leaves, x, np.array([1.0, 0.5]), desc, order=order)
    assert len(tape) - before <= limit


def _mixed_tape_op(op):
    """Run ``op`` with the parameters on one tape and an input on another."""
    first, second = ad.Tape(), ad.Tape()
    desc = md.ModelDescriptor("fhnn", 1)
    leaves = md.init_params(desc).as_leaves(first)
    pts = second.leaf([[0.2, 1.0], [-0.4, 0.5]])
    if op == "stack_last":
        return ad.stack_last([first.leaf([1.0, 2.0]), second.leaf([3.0, 4.0])])
    if op == "forward_mlp":
        # param_shapes names each network's tensors as W0, b0, W1, b1, ...
        coeff = [leaves[name] for name in desc.param_shapes() if name.startswith("coeff.")]
        return ad.forward_mlp(coeff[0::2], coeff[1::2], pts, desc.activation)
    return md.stream_eval(leaves, ad.take_col(pts, 0), ad.take_col(pts, 1), desc, order=1)


@pytest.mark.parametrize("op", ["stack_last", "forward_mlp", "stream_eval"])
def test_vars_from_two_tapes_are_refused(op):
    # a parent index from another tape would send its adjoint to an unrelated node
    with pytest.raises(ad.UsageError, match="different tapes"):
        _mixed_tape_op(op)


# -- structured derivative ----------------------------------------------------------


def test_fhnn_derivative_kinematic_components_are_exact():
    scenario = ph.make_scenario("steady_vortex")
    m = md.DynamicsModel.initialize("fhnn", seed=2, body=scenario.body, fluid=scenario.fluid)
    rng = np.random.default_rng(0)
    s = rng.uniform(-2, 2, size=(6, 4))
    d = np.asarray(m.derivative(s, 0.0))
    assert np.array_equal(d[:, 0], s[:, 2])
    assert np.array_equal(d[:, 1], s[:, 3])


def test_plugin_truth_model_matches_generator_derivative():
    scenario = ph.make_scenario("steady_vortex")
    m = plugin_truth_model(scenario)
    f = scenario.derivative_fn()
    rng = np.random.default_rng(3)
    s = rng.uniform(-2, 2, size=(10, 4))
    got = np.asarray(m.derivative(s, 0.0))
    want = f(s, 0.0)
    assert np.max(np.abs(got - want)) < 1e-8


def test_plugin_truth_model_matches_generator_with_external_forcing():
    scenario = ph.make_scenario("morison_wave")
    m = plugin_truth_model(scenario)
    f = scenario.derivative_fn()
    rng = np.random.default_rng(4)
    s = rng.uniform(-1, 1, size=(5, 4))
    for t in (0.0, 0.7, 2.3):
        got = np.asarray(m.derivative(s, t))
        assert np.max(np.abs(got - f(s, t))) < 1e-8


def test_model_drag_opposes_relative_velocity_for_random_params():
    scenario = ph.make_scenario("steady_vortex")
    rng = np.random.default_rng(11)
    for seed in range(5):
        # unit mass and zero added mass: the acceleration is the drag force;
        # the ablation shares the fhnn parameters of the same seed
        m = md.DynamicsModel.initialize(
            "no_added_mass", seed=seed, body=ph.BodyProperties(mass=1.0), fluid=scenario.fluid
        )
        x, y = rng.uniform(-2, 2, size=2)
        vx, vy = rng.uniform(-1, 1, size=2)
        u = m.flow().velocity(np.array([x]), np.array([y]), 0.0)
        vrx, vry = vx - np.asarray(u.x)[0], vy - np.asarray(u.y)[0]
        fx, fy = np.asarray(m.derivative(np.array([[x, y, vx, vy]]), 0.0))[0, 2:]
        assert fx * vrx + fy * vry <= 1e-12


def test_learned_flow_takes_grids_and_refuses_var_grids():
    flow = md.DynamicsModel.initialize("fhnn", seed=4, body=VORTEX.body, fluid=VORTEX.fluid).flow()
    xs, ys = np.meshgrid(np.linspace(-2.0, 2.0, 5), np.linspace(-1.0, 1.0, 3))
    u, psi = flow.velocity(xs, ys, 0.0), flow.streamfunction(xs, ys, 0.0)
    flat = flow.velocity(xs.ravel(), ys.ravel(), 0.0)
    assert u.x.shape == u.y.shape == psi.shape == (3, 5)
    assert np.array_equal(u.x.ravel(), flat.x) and np.array_equal(u.y.ravel(), flat.y)
    assert np.array_equal(psi.ravel(), flow.streamfunction(xs.ravel(), ys.ravel(), 0.0))
    # a row against a column broadcasts to the grid
    assert np.array_equal(flow.velocity(xs[:1], ys[:, :1], 0.0).x, u.x)
    tape = ad.Tape()
    with pytest.raises(ConfigurationError, match="1-D"):
        flow.velocity(tape.leaf(xs), tape.leaf(ys), 0.0)


def test_ablation_switches_zero_out_the_right_pieces():
    scenario = ph.make_scenario("steady_vortex")
    s = np.array([[1.0, 0.5, 0.3, -0.2]])
    base = md.DynamicsModel.initialize("fhnn", seed=6, body=scenario.body, fluid=scenario.fluid)

    no_mass = md.DynamicsModel(
        descriptor=md.ModelDescriptor("no_added_mass", 6),
        params=base.params.copy(),
        body=scenario.body,
        fluid=scenario.fluid,
    )
    # identical params: removing added mass must scale accelerations up
    a_full = np.asarray(base.derivative(s, 0.0))[0, 2:]
    a_nm = np.asarray(no_mass.derivative(s, 0.0))[0, 2:]
    assert np.all(np.abs(a_nm) > np.abs(a_full))

    no_flow = md.DynamicsModel(
        descriptor=md.ModelDescriptor("no_flow_field", 6),
        params=ad.ParamStore({n: v for n, v in base.params.items() if n.startswith("coeff.")}),
        body=scenario.body,
        fluid=scenario.fluid,
    )
    assert isinstance(no_flow.flow(), ph.ZeroFlow)
    node = md.DynamicsModel.initialize("neural_ode", seed=6, body=scenario.body, fluid=scenario.fluid)
    with pytest.raises(ad.UsageError, match="neural_ode"):
        node.flow()


@pytest.mark.parametrize("variant", ["fhnn", "neural_ode"])
@pytest.mark.parametrize("shape", [(3, 5, 4), (6, 3), (4, 1), ()], ids=["3d", "n_by_3", "4_by_1", "0d"])
def test_derivative_refuses_states_other_than_4_or_n_by_4(variant, shape):
    m = md.DynamicsModel.initialize(variant, seed=0, body=VORTEX.body, fluid=VORTEX.fluid)
    assert np.shape(m.derivative(np.full(4, 0.3), 0.0)) == (4,)
    assert np.shape(m.derivative(np.full((2, 4), 0.3), 0.0)) == (2, 4)
    with pytest.raises(ConfigurationError, match=re.escape(f"got {shape}")):
        m.derivative(np.full(shape, 0.3), 0.0)


def test_neural_ode_zero_weights_keeps_kinematics_only():
    desc = md.ModelDescriptor("neural_ode", 0)
    params = md.init_params(desc)
    for name in params.names():
        params[name] = np.zeros_like(params[name])
    s = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, -1.0, 0.5]])
    d = np.asarray(md.neural_ode_derivative(s, 0.0, params, desc))
    assert np.array_equal(d, np.stack([s[:, 2], s[:, 3], np.zeros(2), np.zeros(2)], axis=1))


def test_same_seed_gives_identical_models():
    a = md.DynamicsModel.initialize("neural_ode", seed=9, body=VORTEX.body, fluid=VORTEX.fluid)
    b = md.DynamicsModel.initialize("neural_ode", seed=9, body=VORTEX.body, fluid=VORTEX.fluid)
    s = np.array([[0.4, -0.2, 0.1, 0.3]])
    assert np.array_equal(np.asarray(a.derivative(s, 0.0)), np.asarray(b.derivative(s, 0.0)))


# -- rollouts -----------------------------------------------------------------------


def test_rollout_zero_duration_returns_initial_state():
    m = md.DynamicsModel.initialize("fhnn", seed=1, body=VORTEX.body, fluid=VORTEX.fluid)
    s0 = np.array([1.0, 2.0, 0.1, -0.1])
    out = md.rollout_model(m.derivative, s0, 0.0)
    assert out.states.shape == (1, 4)
    assert np.array_equal(out.states[0], s0)
    assert not out.diverged


def test_plugin_rollout_reproduces_ground_truth_at_4s():
    scenario = ph.make_scenario("steady_vortex")
    m = plugin_truth_model(scenario)
    f = scenario.derivative_fn()
    s0 = np.array([1.5, -0.5, 0.2, 0.3])
    out = md.rollout_model(m.derivative, s0, 4.0, step=0.01, checkpoints=[1.0, 2.0, 3.0, 4.0])
    _, truth = ph.integrate(f, s0, 0.0, 4.0, 0.005, sample_every=200)
    assert np.max(np.abs(out.states[:, :2] - truth[1:, :2])) < 1e-4


def test_rollout_self_convergence_under_step_halving():
    scenario = ph.make_scenario("steady_vortex")
    m = md.DynamicsModel.initialize("fhnn", seed=4, body=scenario.body, fluid=scenario.fluid)
    s0 = np.array([1.0, 0.0, 0.0, 0.2])
    a = md.rollout_model(m.derivative, s0, 8.0, step=0.01, checkpoints=[8.0])
    b = md.rollout_model(m.derivative, s0, 8.0, step=0.005, checkpoints=[8.0])
    assert np.linalg.norm(a.states[-1, :2] - b.states[-1, :2]) < 1e-6


def test_rollout_flags_divergence_and_freezes_state():
    def explosive(s, t):
        out = np.zeros_like(s)
        out[..., 0] = 40.0 * s[..., 0]
        return out

    s0 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    out = md.rollout_model(explosive, s0, 1.0, step=0.01, checkpoints=[0.5, 1.0])
    assert out.diverged[0]
    assert not out.diverged[1]
    assert np.isfinite(out.states).all()
    assert np.abs(out.states[:, 0, :]).max() <= md.DIVERGENCE_LIMIT * 2
    assert np.isfinite(out.diverged_at[0])
    assert np.isnan(out.diverged_at[1])


def _rates_derivative(rates, nan_from):
    """Row i grows at rates[i] and turns NaN from time nan_from[i] on."""

    def f(s, t):
        return np.where((t >= nan_from)[:, None], np.nan, rates[:, None] * s)

    return f


@given(
    rows=st.lists(
        st.tuples(
            st.floats(-1.0, 1.0),  # growth rate of a healthy row
            st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),  # start state
            st.one_of(st.none(), st.floats(0.0, 0.9)),  # when the row turns NaN, if it does
        ),
        min_size=1,
        max_size=6,
    )
)
def test_rollout_freezes_diverging_rows_and_leaves_the_rest_alone(rows):
    rates = np.array([r for r, _, _ in rows])
    s0 = np.array([s for _, s, _ in rows])
    nan_from = np.array([np.inf if t is None else t for _, _, t in rows])
    bad = np.isfinite(nan_from)
    cps = [0.25, 0.5, 0.75, 1.0]
    out = md.rollout_model(_rates_derivative(rates, nan_from), s0, 1.0, step=0.01, checkpoints=cps)
    assert np.array_equal(out.diverged, bad)
    assert np.isfinite(out.states).all()
    assert np.isnan(out.diverged_at[~bad]).all()
    for i in np.flatnonzero(bad):
        assert nan_from[i] <= out.diverged_at[i] <= nan_from[i] + 0.01 + 1e-9
        frozen = out.states[np.asarray(cps) >= out.diverged_at[i], i]
        assert (frozen == frozen[:1]).all()
    if (~bad).any():
        healthy = _rates_derivative(rates[~bad], nan_from[~bad])
        alone = md.rollout_model(healthy, s0[~bad], 1.0, step=0.01, checkpoints=cps)
        assert out.states[:, ~bad].tobytes() == alone.states.tobytes()


def test_rollout_rejects_nonpositive_step():
    m = md.DynamicsModel.initialize("fhnn", seed=1, body=VORTEX.body, fluid=VORTEX.fluid)
    s0 = np.array([1.0, 2.0, 0.1, -0.1])
    for step in (0.0, -0.01):
        with pytest.raises(ConfigurationError, match="rollout step must be > 0"):
            md.rollout_model(m.derivative, s0, 1.0, step=step)


def test_rollout_rejects_states_that_are_not_four_wide():
    m = md.DynamicsModel.initialize("fhnn", seed=1, body=VORTEX.body, fluid=VORTEX.fluid)
    for s0 in (np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2, 4))):
        with pytest.raises(ConfigurationError, match="rollout states must be"):
            md.rollout_model(m.derivative, s0, 1.0)


def test_rollout_checkpoint_equals_integrate_sample_bitwise():
    # both take their steps with physics.rk4_step, so on one derivative they
    # agree bit for bit, here in a flow that changes in time
    f = ph.make_scenario("time_varying_vortex").derivative_fn()
    s0 = np.array([[1.5, -0.5, 0.2, 0.3], [0.8, 1.1, -0.1, 0.0]])
    out = md.rollout_model(f, s0, 1.0, step=0.01, checkpoints=[0.5, 1.0])
    _, samples = ph.integrate(f, s0, 0.0, 1.0, 0.01, sample_every=50)
    assert out.states.tobytes() == samples[1:].tobytes()


def test_rotation_equivariance_with_tied_masses_and_radial_flow():
    scenario = ph.make_scenario("steady_vortex")
    m = md.DynamicsModel.initialize("fhnn", seed=12, body=scenario.body, fluid=scenario.fluid)
    # radially symmetric learned flow: zero stream weights (constant psi)
    for name in m.params.names():
        if name.startswith("stream."):
            m.params[name] = np.zeros_like(m.params[name])
    # tied added masses: the coefficient net's m_ax and m_ay outputs share a row
    last = len(m.descriptor.hidden)
    for name in (f"coeff.W{last}", f"coeff.b{last}"):
        tied = m.params[name].copy()
        tied[1] = tied[0]
        m.params[name] = tied

    phi = 1.1
    c, sn = np.cos(phi), np.sin(phi)
    rot = np.array([[c, -sn], [sn, c]])
    s0 = np.array([1.2, 0.3, -0.1, 0.4])
    s0_rot = np.concatenate([rot @ s0[:2], rot @ s0[2:]])
    out = md.rollout_model(m.derivative, s0, 2.0, step=0.01, checkpoints=[0.5, 1.0, 1.5, 2.0])
    out_rot = md.rollout_model(m.derivative, s0_rot, 2.0, step=0.01, checkpoints=[0.5, 1.0, 1.5, 2.0])
    rotated = np.concatenate(
        [out.states[:, :2] @ rot.T, out.states[:, 2:] @ rot.T], axis=1
    )
    assert np.max(np.abs(out_rot.states - rotated)) < 1e-8


# -- descriptors and checkpoints ------------------------------------------------------


# sha256 over the sorted names of init_params(ModelDescriptor(variant, 1)), each
# giving its name, str(shape) and float64 bytes; first 16 hex digits
INIT_DIGESTS = {
    "fhnn": "7ede2cb9a6eb29d7",
    "neural_ode": "64f953c0674241ce",
    "no_added_mass": "7ede2cb9a6eb29d7",
    "no_linear_drag": "7ede2cb9a6eb29d7",
    "shallow": "b2d4787740cbe694",
    "relu": "7ede2cb9a6eb29d7",
}


@pytest.mark.parametrize("variant", md.VARIANTS)
def test_seeded_init_is_pinned(variant):
    params = md.init_params(md.ModelDescriptor(variant, 1))
    if variant == "no_flow_field":
        # no stream network; the coefficient network is drawn first, as in fhnn
        fhnn = md.init_params(md.ModelDescriptor("fhnn", 1))
        assert params.names() == [n for n in fhnn.names() if n.startswith("coeff.")]
        assert all(_same_bits(params[n], fhnn[n]) for n in params.names())
        return
    h = hashlib.sha256()
    for name in sorted(params.names()):
        h.update(name.encode())
        h.update(str(params[name].shape).encode())
        h.update(params[name].tobytes())
    assert h.hexdigest()[:16] == INIT_DIGESTS[variant]


def test_descriptor_validation():
    with pytest.raises(ConfigurationError, match="unknown variant"):
        md.ModelDescriptor("fancy_net", 0)
    for seed in ("x", -1, 1.5):
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            md.ModelDescriptor.from_metadata({"variant": "fhnn", "seed": seed})
    assert [f.name for f in dataclasses.fields(md.ModelDescriptor)] == ["variant", "seed"]
    for variant in md.VARIANTS:
        desc = md.ModelDescriptor(variant, 4)
        assert desc.hidden == ((16,) if variant == "shallow" else (64, 64))
        assert desc.activation == ("relu" if variant == "relu" else "tanh")
        assert desc.learns_flow == (variant not in ("neural_ode", "no_flow_field"))
        assert desc.to_metadata() == {"variant": variant, "seed": 4}
        assert md.ModelDescriptor.from_metadata(desc.to_metadata()) == desc


def test_checkpoint_roundtrip_and_variant_refusal(tmp_path):
    m = md.DynamicsModel.initialize("no_linear_drag", seed=5, body=VORTEX.body, fluid=VORTEX.fluid)
    path = tmp_path / "model.json"
    m.save(path)
    back = md.DynamicsModel.load(path, body=VORTEX.body, fluid=VORTEX.fluid)
    assert back.descriptor == m.descriptor
    for name, value in m.params.items():
        assert np.array_equal(back.params[name], value)
    with pytest.raises(ConfigurationError):
        md.DynamicsModel.load(path, expected_variant="fhnn", body=VORTEX.body, fluid=VORTEX.fluid)


def test_plain_dict_params_are_refused_naming_the_type():
    desc = md.ModelDescriptor("fhnn", 1)
    with pytest.raises(ConfigurationError, match="ParamStore, got dict"):
        md.DynamicsModel(desc, dict(md.init_params(desc)), VORTEX.body, VORTEX.fluid)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p["metadata"].pop("descriptor"), "lacks key 'descriptor'"),
        (lambda p: p["metadata"]["descriptor"].pop("seed"), "lacks key 'seed'"),
        (
            lambda p: p["tensors"].update({"stream.W1": {"shape": [64, 63], "data": [0.1] * (64 * 63)}}),
            r"'stream.W1' has shape \(64, 63\), the network needs \(64, 64\)",
        ),
        (lambda p: p["tensors"].pop("coeff.b0"), "lack tensor 'coeff.b0'"),
        (lambda p: p["metadata"].update(descriptor="fhnn"), "descriptor must be a mapping, got 'fhnn'"),
        # an older checkpoint recording a network that the variant does not fix
        (lambda p: p["metadata"]["descriptor"].update(activation="softplus"), "unknown key 'activation'"),
        # an older no_flow_field checkpoint, which held a stream network that nothing read
        (
            lambda p: p["metadata"]["descriptor"].update(variant="no_flow_field"),
            "no_flow_field model has no network that reads 'stream.W0'",
        ),
    ],
    ids=[
        "no_descriptor", "no_seed", "wrong_shape", "missing_tensor", "descriptor_not_mapping", "extra_key",
        "extra_tensor",
    ],
)
def test_checkpoint_load_names_what_does_not_fit(tmp_path, edit, message):
    path = tmp_path / "model.json"
    md.DynamicsModel.initialize("fhnn", seed=5, body=VORTEX.body, fluid=VORTEX.fluid).save(path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError, match=message):
        md.DynamicsModel.load(path, body=VORTEX.body, fluid=VORTEX.fluid)
