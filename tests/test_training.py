import csv
import gc
import logging
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from floatdyn import autodiff as ad
from floatdyn import model as md
from floatdyn import physics as ph
from floatdyn import training as tr
from floatdyn.autodiff import ConfigurationError
from oracles import fd_gradient, grad_mismatches, plugin_truth_model, sample_coords

VORTEX = ph.make_scenario("steady_vortex")


@pytest.fixture(scope="module")
def vortex_dataset():
    scenario = ph.make_scenario("steady_vortex")
    return scenario, ph.generate_dataset(scenario, 6, 2, duration=1.0, seed=0)


@pytest.fixture(scope="module")
def morison_dataset():
    scenario = ph.make_scenario("morison_wave")
    return scenario, ph.generate_dataset(scenario, 6, 2, duration=1.0, seed=0)


def _batch(dataset, k=16):
    states, nexts, derivs, times = tr.transition_pairs(dataset.split("train"))
    return states[:k], nexts[:k], derivs[:k], times[:k]


# the l_step term alone, as a differentiable total
STEP_ONLY = tr.LossWeights(w_deriv=0.0, w_step=1.0, lambda_flow=0.0)


def _parts(m, states, nexts, derivs, times):
    return tr.training_losses(m, states, nexts, derivs, times, 0.05, tr.LossWeights())[1]


def _l_smooth(m, pts, lambda_flow):
    """training_losses' smoothness term for bodies at rest at ``pts``."""
    states = np.concatenate([pts, np.zeros_like(pts)], axis=1)
    zeros = np.zeros_like(states)
    weights = tr.LossWeights(lambda_flow=lambda_flow)
    return tr.training_losses(m, states, zeros, zeros, np.zeros(len(pts)), 0.05, weights)[1].l_smooth


# -- derivative term -------------------------------------------------------------


def test_loss_derivative_zero_for_plugin_truth(vortex_dataset):
    scenario, dataset = vortex_dataset
    m = plugin_truth_model(scenario)
    loss = _parts(m, *_batch(dataset)).l_deriv
    assert loss < 1e-12


def test_loss_derivative_zero_on_fabricated_labels(vortex_dataset):
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize("fhnn", seed=1, body=scenario.body, fluid=scenario.fluid)
    states, nexts, _, times = _batch(dataset)
    fabricated = np.asarray(m.derivative(states, times))
    assert _parts(m, states, nexts, fabricated, times).l_deriv == 0.0


def test_loss_derivative_invariant_under_batch_duplication(vortex_dataset):
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize("fhnn", seed=2, body=scenario.body, fluid=scenario.fluid)
    batch = _batch(dataset)
    single = _parts(m, *batch).l_deriv
    doubled = _parts(m, *(np.concatenate([v, v]) for v in batch)).l_deriv
    assert doubled == pytest.approx(single, rel=1e-15)


# -- one-step term -----------------------------------------------------------------


def test_loss_step_reduces_to_state_gap_for_zero_derivative():
    desc = md.ModelDescriptor("neural_ode", 0)
    params = md.init_params(desc)
    for name in params.names():
        params[name] = np.zeros_like(params[name])
    m = md.DynamicsModel(descriptor=desc, params=params, body=VORTEX.body, fluid=VORTEX.fluid)
    rng = np.random.default_rng(0)
    states = np.concatenate([rng.normal(size=(8, 2)), np.zeros((8, 2))], axis=1)
    nexts = np.concatenate([rng.normal(size=(8, 2)), np.zeros((8, 2))], axis=1)
    want = np.mean(np.sum((states - nexts) ** 2, axis=1))
    got = _parts(m, states, nexts, np.zeros((8, 4)), np.zeros(8)).l_step
    assert got == pytest.approx(want, rel=1e-15)


def test_loss_step_tiny_for_plugin_truth(vortex_dataset):
    scenario, dataset = vortex_dataset
    m = plugin_truth_model(scenario)
    loss = _parts(m, *_batch(dataset)).l_step
    assert loss < 1e-10  # bounded by the generator's integration accuracy


def test_loss_step_gradient_matches_finite_differences(vortex_dataset):
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize("fhnn", seed=3, body=scenario.body, fluid=scenario.fluid)
    states, nexts, derivs, times = _batch(dataset, k=4)
    rng = np.random.default_rng(5)
    coords = sample_coords(dict(m.params.items()), rng, per_tensor=4)

    def f(vals):
        return float(tr.training_losses(m, states, nexts, derivs, times, 0.05, STEP_ONLY, params=vals)[0])

    tape = ad.Tape()
    leaves = m.params.as_leaves(tape)
    total, _ = tr.training_losses(m, states, nexts, derivs, times, 0.05, STEP_ONLY, params=leaves)
    ad.backward(tape, total)
    got = ad.parameter_gradients(tape, leaves)
    want = fd_gradient(f, dict(m.params.items()), h=1e-5, coords=coords)
    bad = grad_mismatches(got, want, rel_tol=1e-5, abs_floor=1e-9)
    assert not bad, bad[:5]


# -- smoothness term -----------------------------------------------------------------


def test_loss_smooth_zero_for_zero_stream_weights():
    m = md.DynamicsModel.initialize("fhnn", seed=4, body=VORTEX.body, fluid=VORTEX.fluid)
    for name in m.params.names():
        if name.startswith("stream."):
            m.params[name] = np.zeros_like(m.params[name])
    pts = np.random.default_rng(1).normal(size=(10, 2))
    assert _l_smooth(m, pts, 1.0) == 0.0


def test_loss_smooth_value_matches_central_differences():
    # lambda * mean ||H||_F^2, H the central differences of the fhnn stream
    # network's order-1 gradient channels
    m = md.DynamicsModel.initialize("fhnn", seed=8, body=VORTEX.body, fluid=VORTEX.fluid)
    pts = np.random.default_rng(2).uniform(-2, 2, size=(20, 2))
    h = 1e-5

    def grad(p):
        ev = md.stream_eval(m.params, p[:, 0], p[:, 1], m.descriptor, order=1)
        return np.stack([ev.gx, ev.gy], axis=1)

    hess = np.stack([(grad(pts + h * e) - grad(pts - h * e)) / (2 * h) for e in np.eye(2)], axis=2)
    lam = 1e-3
    got = _l_smooth(m, pts, lam)
    assert got == pytest.approx(lam * np.mean(np.sum(hess**2, axis=(1, 2))), rel=1e-6)


def test_loss_smooth_zero_weight_lambda(vortex_dataset):
    scenario, _ = vortex_dataset
    m = md.DynamicsModel.initialize("fhnn", seed=5, body=scenario.body, fluid=scenario.fluid)
    pts = np.random.default_rng(3).normal(size=(6, 2))
    assert _l_smooth(m, pts, 0.0) == 0.0


def test_loss_smooth_vanishes_for_relu_variant():
    m = md.DynamicsModel.initialize("relu", seed=6, body=VORTEX.body, fluid=VORTEX.fluid)
    pts = np.random.default_rng(4).normal(size=(6, 2))
    assert _l_smooth(m, pts, 1.0) == 0.0


# -- combined objective -------------------------------------------------------------


@pytest.mark.parametrize("flow", ["learned", "flow_override", "no_flow_field"])
def test_training_losses_total_is_weighted_sum(vortex_dataset, flow):
    # an overridden or zero flow must not pick up the shared streamfunction jet
    scenario, dataset = vortex_dataset
    variant = "no_flow_field" if flow == "no_flow_field" else "fhnn"
    override = scenario.flow if flow == "flow_override" else None
    m = md.DynamicsModel.initialize(
        variant, seed=7, body=scenario.body, fluid=scenario.fluid, flow_override=override
    )
    states, nexts, derivs, times = _batch(dataset)
    weights = tr.LossWeights(w_deriv=1.0, w_step=2.0, lambda_flow=1e-3)
    total, parts = tr.training_losses(m, states, nexts, derivs, times, 0.05, weights)
    assert parts.total == pytest.approx(
        1.0 * parts.l_deriv + 2.0 * parts.l_step + parts.l_smooth, abs=1e-12
    )
    # shared-stage evaluation must equal each term evaluated on its own, bitwise
    mean_sq = lambda err: float(ad.vsum(err * err) / float(len(states)))  # noqa: E731
    l_smooth = 0.0
    if flow == "learned":
        jet = md.stream_eval(m.params, states[:, 0], states[:, 1], m.descriptor, order=2)
        l_smooth = float(weights.lambda_flow * ad.vmean(jet.hessian_frobenius_sq()))
    assert parts.l_deriv == mean_sq(m.derivative(states, times) - derivs)
    assert parts.l_step == mean_sq(ph.rk4_step(m.derivative, states, times, 0.05) - nexts)
    assert parts.l_smooth == l_smooth


SHARED_JET_CASES = [(f, m) for f in ("learned", "flow_override", "no_flow_field") for m in ("numpy", "tape")]


@pytest.mark.parametrize(
    "flow, mode", SHARED_JET_CASES, ids=[m if f == "learned" else f"{f}-{m}" for f, m in SHARED_JET_CASES]
)
def test_training_losses_shares_one_order_two_stream_jet(vortex_dataset, monkeypatch, mode, flow):
    # RK4 stage 1 reads the smoothness term's jet: one order-2 call, and
    # order 1 only for stages 2-4; dynamics that never read the stream
    # network evaluate it not at all
    scenario, dataset = vortex_dataset
    variant = "no_flow_field" if flow == "no_flow_field" else "fhnn"
    override = scenario.flow if flow == "flow_override" else None
    m = md.DynamicsModel.initialize(
        variant, seed=7, body=scenario.body, fluid=scenario.fluid, flow_override=override
    )
    states, nexts, derivs, times = _batch(dataset)
    orders = []
    stream_eval = md.stream_eval

    def counted(params, x, y, desc, order=2):
        orders.append(order)
        return stream_eval(params, x, y, desc, order)

    monkeypatch.setattr(md, "stream_eval", counted)
    monkeypatch.setattr(tr, "stream_eval", counted)
    tape = ad.Tape()
    params = m.params.as_leaves(tape) if mode == "tape" else None
    total, _ = tr.training_losses(m, states, nexts, derivs, times, 0.05, tr.LossWeights(), params=params)
    if flow != "learned":
        assert orders == []
        if mode == "tape":
            ad.backward(tape, total)
            grads = ad.parameter_gradients(tape, params)
            assert all(np.all(g == 0.0) for name, g in grads.items() if name.startswith("stream."))
        return
    assert sorted(orders) == [1, 1, 1, 2]
    # stage 1 reuses the order-2 jet: its own order-1 stream node would add 4 nodes
    assert len(tape) == (224 if mode == "tape" else 0)


@pytest.mark.parametrize("variant", ["fhnn", "no_added_mass", "no_linear_drag", "no_flow_field", "shallow", "relu", "neural_ode"])
def test_total_loss_gradients_for_every_variant(vortex_dataset, variant):
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize(variant, seed=8, body=scenario.body, fluid=scenario.fluid)
    states, nexts, derivs, times = _batch(dataset, k=4)
    weights = tr.LossWeights()
    rng = np.random.default_rng(9)
    coords = sample_coords(dict(m.params.items()), rng, per_tensor=3)

    def f(vals):
        total, _ = tr.training_losses(m, states, nexts, derivs, times, 0.05, weights, params=vals)
        return float(total.value if isinstance(total, ad.Var) else total)

    tape = ad.Tape()
    leaves = m.params.as_leaves(tape)
    total, _ = tr.training_losses(m, states, nexts, derivs, times, 0.05, weights, params=leaves)
    ad.backward(tape, total)
    got = ad.parameter_gradients(tape, leaves)
    want = fd_gradient(f, dict(m.params.items()), h=1e-5, coords=coords)
    bad = grad_mismatches(got, want, rel_tol=1e-4, abs_floor=1e-9)
    assert not bad, (variant, bad[:5])


def test_full_step_loss_gradient_on_one_sample(vortex_dataset):
    # the classic single-sample check, at tight tolerance
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize("fhnn", seed=10, body=scenario.body, fluid=scenario.fluid)
    states, nexts, derivs, times = _batch(dataset, k=1)
    rng = np.random.default_rng(11)
    coords = sample_coords(dict(m.params.items()), rng, per_tensor=5)

    def f(vals):
        return float(tr.training_losses(m, states, nexts, derivs, times, 0.05, STEP_ONLY, params=vals)[0])

    tape = ad.Tape()
    leaves = m.params.as_leaves(tape)
    ad.backward(tape, tr.training_losses(m, states, nexts, derivs, times, 0.05, STEP_ONLY, params=leaves)[0])
    got = ad.parameter_gradients(tape, leaves)
    want = fd_gradient(f, dict(m.params.items()), h=1e-5, coords=coords)
    bad = grad_mismatches(got, want, rel_tol=1e-5, abs_floor=1e-10)
    assert not bad, bad[:5]


class NanOffTheSamples(ph.FlowField):
    """Still water at array positions, NaN at Var positions: in a tape-mode
    step those are the positions of RK4 stages 2-4."""

    def velocity(self, x, y, t):
        if isinstance(x, ad.Var):
            return ph.Vec2(np.full(x.shape, np.nan), np.full(y.shape, np.nan))
        return ph.Vec2(np.zeros(np.shape(x)), np.zeros(np.shape(y)))


def test_non_finite_rk4_stage_gives_non_finite_loss_and_aborts_training(vortex_dataset):
    # the one-step loss runs physics.rk4_step, which checks no stage: a
    # non-finite stage is a non-finite loss, never an IntegrationError
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize(
        "fhnn", seed=18, body=scenario.body, fluid=scenario.fluid, flow_override=NanOffTheSamples()
    )
    states, nexts, derivs, times = _batch(dataset)
    leaves = m.params.as_leaves(ad.Tape())
    _, parts = tr.training_losses(m, states, nexts, derivs, times, 0.05, tr.LossWeights(), params=leaves)
    assert np.isfinite(parts.l_deriv)
    assert not np.isfinite(parts.l_step) and not np.isfinite(parts.total)
    with pytest.raises(tr.TrainingAborted):
        tr.train(m, dataset, tr.TrainConfig(epochs=1, batch_size=64, n_val=1))


# -- schedule ------------------------------------------------------------------------


def test_learning_rate_schedule_is_piecewise():
    config = tr.TrainConfig(epochs=2000, base_lr=1e-3)
    assert tr.learning_rate(config, 1) == 1e-3
    assert tr.learning_rate(config, 999) == 1e-3
    assert tr.learning_rate(config, 1000) == 5e-4
    assert tr.learning_rate(config, 1499) == 5e-4
    assert tr.learning_rate(config, 1500) == 2.5e-4
    assert tr.learning_rate(config, 2000) == 2.5e-4


NAN = float("nan")


@pytest.mark.parametrize(
    "build, error, name",
    [
        (lambda: ph.BodyProperties(mass=NAN), ph.PhysicalValidityError, "mass"),
        (lambda: ph.FluidProperties(rho=NAN, area=0.05, eps=1e-6), ph.PhysicalValidityError, "rho"),
        (lambda: ph.FluidProperties(rho=1000.0, area=np.inf, eps=1e-6), ph.PhysicalValidityError, "area"),
        (lambda: ph.TrueCoefficients(36.0, NAN, 1.2, 6.0, radial=False), ph.PhysicalValidityError, "m_ay"),
        (lambda: ph.make_scenario("steady_vortex", {"m_ax": NAN}), ConfigurationError, "m_ax"),
        (lambda: ph.make_scenario("steady_vortex", {"omega": -np.inf}), ConfigurationError, "omega"),
        (lambda: tr.LossWeights(w_deriv=NAN), ConfigurationError, "w_deriv"),
        (lambda: tr.TrainConfig(base_lr=NAN), ConfigurationError, "base_lr"),
        (lambda: tr.TrainConfig(epochs=NAN), ConfigurationError, "epochs"),
        (lambda: ad.AdamState.for_params(ad.ParamStore({"w": [1.0]}), lr=NAN), ConfigurationError, "lr"),
        (lambda: ph.integrate(lambda s, t: -s, np.ones(4), 0.0, NAN, 0.1), ConfigurationError, "duration"),
        (lambda: md.rollout_model(lambda s, t: -s, np.ones(4), NAN), ConfigurationError, "duration"),
        (
            lambda: md.rollout_model(lambda s, t: -s, np.ones(4), 1.0, checkpoints=[0.5, NAN]),
            ConfigurationError,
            "checkpoints",
        ),
    ],
    ids=[
        "mass", "rho", "area_inf", "m_ay", "scenario_m_ax", "scenario_omega_inf", "w_deriv", "base_lr",
        "epochs", "adam_lr", "integrate_duration", "rollout_duration", "rollout_checkpoint",
    ],
)
def test_non_finite_value_is_refused_naming_it(build, error, name):
    with pytest.raises(error, match=name):
        build()


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        tr.TrainConfig(epochs=0)
    with pytest.raises(ConfigurationError):
        tr.LossWeights(lambda_flow=-1.0)


# -- train loop -------------------------------------------------------------------------


def test_train_zero_lr_single_epoch_is_noop(vortex_dataset):
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize("fhnn", seed=12, body=scenario.body, fluid=scenario.fluid)
    before = {k: v.copy() for k, v in m.params.items()}
    config = tr.TrainConfig(epochs=1, batch_size=64, base_lr=0.0, n_val=1, seed=0)
    result = tr.train(m, dataset, config)
    assert len(result.log) == 1
    for name, value in before.items():
        assert np.array_equal(m.params[name], value)


def test_train_logs_every_epoch(vortex_dataset, caplog):
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize("fhnn", seed=12, body=scenario.body, fluid=scenario.fluid)
    config = tr.TrainConfig(epochs=2, batch_size=64, base_lr=1e-3, n_val=1, seed=0)
    with caplog.at_level(logging.INFO, logger="floatdyn.training"):
        tr.train(m, dataset, config)
    records = [r for r in caplog.records if r.name == "floatdyn.training"]
    assert [r.getMessage().split()[:2] for r in records] == [["epoch", "1"], ["epoch", "2"]]


def test_train_is_bitwise_deterministic(vortex_dataset, tmp_path):
    scenario, dataset = vortex_dataset
    config = tr.TrainConfig(epochs=3, batch_size=32, base_lr=1e-3, n_val=1, seed=42)
    outs = []
    for run in range(2):
        m = md.DynamicsModel.initialize("fhnn", seed=13, body=scenario.body, fluid=scenario.fluid)
        tr.train(m, dataset, config)
        path = tmp_path / f"run{run}.json"
        m.save(path)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_train_reduces_loss_and_logs_consistent_totals(vortex_dataset):
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize("fhnn", seed=14, body=scenario.body, fluid=scenario.fluid)
    config = tr.TrainConfig(epochs=25, batch_size=64, base_lr=3e-3, n_val=1, seed=1)
    result = tr.train(m, dataset, config)
    assert result.log[-1].total < result.log[0].total
    for entry in result.log:
        assert entry.total == pytest.approx(
            entry.l_deriv + entry.l_step + entry.l_smooth, abs=1e-12
        )
        assert entry.lr == tr.learning_rate(config, entry.epoch)
    assert np.isfinite(result.best_val)
    assert 1 <= result.best_epoch <= config.epochs


def test_train_never_touches_test_trajectories(vortex_dataset):
    scenario, dataset = vortex_dataset
    poisoned = ph.Dataset(
        [
            ph.Trajectory(
                t.traj_id,
                t.scenario,
                t.seed,
                t.split,
                t.dt,
                t.times,
                t.states if t.split == "train" else np.full_like(t.states, np.nan),
                t.derivs if t.split == "train" else np.full_like(t.derivs, np.nan),
            )
            for t in dataset.trajectories
        ],
        dataset.manifest,
    )
    m = md.DynamicsModel.initialize("fhnn", seed=15, body=scenario.body, fluid=scenario.fluid)
    config = tr.TrainConfig(epochs=2, batch_size=64, base_lr=1e-3, n_val=1, seed=2)
    result = tr.train(m, poisoned, config)  # NaNs in test split must never be seen
    assert all(np.isfinite(e.total) for e in result.log)


def test_train_aborts_on_nan_with_last_good_checkpoint(vortex_dataset, tmp_path):
    scenario, dataset = vortex_dataset
    bad = ph.Dataset(
        [
            ph.Trajectory(
                t.traj_id,
                t.scenario,
                t.seed,
                t.split,
                t.dt,
                t.times,
                t.states,
                np.full_like(t.derivs, np.nan) if t.split == "train" else t.derivs,
            )
            for t in dataset.trajectories
        ],
        dataset.manifest,
    )
    m = md.DynamicsModel.initialize("fhnn", seed=16, body=scenario.body, fluid=scenario.fluid)
    config = tr.TrainConfig(epochs=2, batch_size=64, base_lr=1e-3, n_val=1, seed=3)
    with pytest.raises(tr.TrainingAborted) as err:
        tr.train(m, bad, config, checkpoint_dir=tmp_path)
    assert err.value.result.log == []
    assert err.value.checkpoint_path is not None
    params, meta = ad.load_checkpoint(err.value.checkpoint_path)
    assert meta["descriptor"]["variant"] == "fhnn"


def test_train_writes_best_and_final_checkpoints(vortex_dataset, tmp_path):
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize("fhnn", seed=17, body=scenario.body, fluid=scenario.fluid)
    config = tr.TrainConfig(epochs=4, batch_size=64, base_lr=1e-3, n_val=1, seed=4, checkpoint_every=2)
    tr.train(m, dataset, config, checkpoint_dir=tmp_path)
    assert (tmp_path / "best.json").exists()
    assert (tmp_path / "final.json").exists()
    assert (tmp_path / "epoch00002.json").exists()
    assert (tmp_path / "epoch00004.json").exists()


def test_write_log_csv_roundtrip(vortex_dataset, tmp_path):
    rows = [tr.EpochLog(1, 1e-3, 0.5, 0.25, 0.01, 0.76, 0.8), tr.EpochLog(2, 1e-3, 0.4, 0.2, 0.01, 0.61, 0.7)]
    path = tmp_path / "log.csv"
    tr.write_log_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,l_deriv,l_step,l_smooth,total,val_total"
    assert len(lines) == 3
    assert lines[1].startswith("1,0.001,0.5,0.25,0.01,")

    # a log that train() produced: every value is a plain number
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize("fhnn", seed=3, body=scenario.body, fluid=scenario.fluid)
    result = tr.train(m, dataset, tr.TrainConfig(epochs=2, batch_size=64, n_val=1))
    tr.write_log_csv(path, result.log)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [[float(v) for v in row] for row in rows] == [list(astuple(entry)) for entry in result.log]


@pytest.fixture(scope="module")
def validation_rows():
    """1,280 held-out rows, as train_fhnn validates on: 8 trajectories of 8 s."""
    scenario = ph.make_scenario("steady_vortex")
    dataset = ph.generate_dataset(scenario, 8, 1, duration=8.0, seed=0)
    return scenario, tr.transition_pairs(dataset.split("train"))


@pytest.mark.parametrize("variant", ["fhnn", "neural_ode"])
def test_validation_total_equals_one_call_over_all_rows(validation_rows, variant):
    # 300 rows in chunks of 128 leave a partial last chunk of 44
    scenario, batch = validation_rows
    m = md.DynamicsModel.initialize(variant, seed=5, body=scenario.body, fluid=scenario.fluid)
    rows = [v[:300] for v in batch]
    config = tr.TrainConfig(batch_size=128)
    chunked = tr.validation_total(m, rows, 0.05, config)
    _, whole = tr.training_losses(m, *rows, 0.05, config.weights)
    assert chunked == pytest.approx(whole.total, rel=1e-13, abs=0.0)


def test_validation_memory_does_not_grow_with_row_count(validation_rows):
    scenario, batch = validation_rows
    m = md.DynamicsModel.initialize("fhnn", seed=5, body=scenario.body, fluid=scenario.fluid)
    assert len(batch[0]) == 1280
    config = tr.TrainConfig()
    peaks = []
    for n in (320, 1280):
        rows = [v[:n] for v in batch]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tr.validation_total(m, rows, 0.05, config)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def test_transition_pairs_shapes(vortex_dataset):
    _, dataset = vortex_dataset
    states, nexts, derivs, times = tr.transition_pairs(dataset.split("train"))
    per_traj = len(dataset.trajectories[0].times) - 1
    assert states.shape == (6 * per_traj, 4)
    assert nexts.shape == states.shape
    assert derivs.shape == states.shape
    assert times.shape == (6 * per_traj,)


@pytest.mark.parametrize("kind", ["steady_vortex", "morison_wave"])
@pytest.mark.parametrize("variant", md.VARIANTS)
def test_training_losses_tape_mode_equals_numpy_mode_bitwise(request, kind, variant):
    # both modes dispatch the same formulas: numpy ops or one tape node each
    fixture = "vortex_dataset" if kind == "steady_vortex" else "morison_dataset"
    scenario, dataset = request.getfixturevalue(fixture)
    m = md.DynamicsModel.initialize(variant, seed=3, body=scenario.body, fluid=scenario.fluid)
    batch = _batch(dataset)
    tape = ad.Tape()
    _, taped = tr.training_losses(m, *batch, 0.05, tr.LossWeights(), params=m.params.as_leaves(tape))
    assert np.array(astuple(taped)).tobytes() == np.array(astuple(_parts(m, *batch))).tobytes()


def test_backward_runs_each_jet_node_reverse_sweep_once(vortex_dataset, monkeypatch):
    # one backward callback per node: mlp_jet_vjp is not repeated per parent
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize("fhnn", seed=7, body=scenario.body, fluid=scenario.fluid)
    calls = dict.fromkeys(["mlp_jet", "mlp_jet_vjp"], 0)
    for name in calls:
        def counted(*args, name=name, func=getattr(ad, name), **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        monkeypatch.setattr(ad, name, counted)
    tape = ad.Tape()
    leaves = m.params.as_leaves(tape)
    total, _ = tr.training_losses(m, *_batch(dataset), 0.05, tr.LossWeights(), params=leaves)
    # one order-2 and three order-1 stream jets, four coefficient networks
    assert calls == {"mlp_jet": 8, "mlp_jet_vjp": 0}
    ad.backward(tape, total)
    assert calls == {"mlp_jet": 8, "mlp_jet_vjp": 8}


def test_split_train_val_holds_out_tail():
    trajs = ["a", "b", "c", "d"]
    core, val = tr.split_train_val(trajs, 1)
    assert core == ["a", "b", "c"] and val == ["d"]
    with pytest.raises(ConfigurationError):
        tr.split_train_val(trajs, 4)


@pytest.mark.parametrize("variant", ["fhnn", "neural_ode"])
def test_training_step_tape_is_freed_by_reference_counting(vortex_dataset, variant):
    # a tape in a reference cycle would wait for the cyclic collector
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize(variant, seed=12, body=scenario.body, fluid=scenario.fluid)
    states, nexts, derivs, times = _batch(dataset)
    gc.collect()
    gc.disable()
    try:
        tape = ad.Tape()
        leaves = m.params.as_leaves(tape)
        total, _ = tr.training_losses(m, states, nexts, derivs, times, 0.05, tr.LossWeights(), params=leaves)
        ad.backward(tape, total)
        del tape, leaves, total
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_training_step_tape_stays_under_its_memory_bound():
    # each stream jet saves an activation's base and input channels, and
    # the reverse sweep rebuilds the output channels from them: 7.27 MB at
    # batch 256 when the jets also saved their output channels, 4.39 MB now
    # (9.68 MB before that, when they saved phi', phi'' and phi''')
    scenario = ph.make_scenario("steady_vortex")
    dataset = ph.generate_dataset(scenario, 13, 1, duration=1.0, seed=0)
    states, nexts, derivs, times = (v[:256] for v in tr.transition_pairs(dataset.split("train")))
    m = md.DynamicsModel.initialize("fhnn", seed=12, body=scenario.body, fluid=scenario.fluid)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tape = ad.Tape()
        leaves = m.params.as_leaves(tape)
        total, _ = tr.training_losses(m, states, nexts, derivs, times, 0.05, tr.LossWeights(), params=leaves)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(states) == 256
    assert held <= 5.0e6


@pytest.mark.parametrize("kind", ["morison_wave", "obstacle_flow"])
def test_train_with_the_true_flow_plugged_in(kind):
    # RK4 stages 2-4 hand the known flow Var positions: ZeroFlow takes them,
    # a flow with no tape-mode form names itself
    scenario = ph.make_scenario(kind)
    dataset = ph.generate_dataset(scenario, 2, 1, seed=0)
    m = md.DynamicsModel.initialize(
        "fhnn", seed=0, body=scenario.body, fluid=scenario.fluid, flow_override=scenario.flow
    )
    if kind == "obstacle_flow":
        with pytest.raises(ConfigurationError, match="ObstacleFlow"):
            tr.train(m, dataset, tr.TrainConfig(epochs=1))
        return
    result = tr.train(m, dataset, tr.TrainConfig(epochs=1))
    assert np.isfinite(result.log[-1].total)
