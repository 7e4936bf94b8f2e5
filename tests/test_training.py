import gc
import logging

import numpy as np
import pytest

from floatdyn import autodiff as ad
from floatdyn import model as md
from floatdyn import physics as ph
from floatdyn import training as tr
from floatdyn.autodiff import ConfigurationError
from oracles import fd_gradient, grad_mismatches, plugin_truth_model, sample_coords


@pytest.fixture(scope="module")
def vortex_dataset():
    scenario = ph.make_scenario("steady_vortex")
    return scenario, ph.generate_dataset(scenario, 6, 2, duration=1.0, dt_sample=0.05, seed=0)


def _batch(dataset, k=16):
    states, nexts, derivs, times = tr.transition_pairs(dataset.split("train"))
    return states[:k], nexts[:k], derivs[:k], times[:k]


# -- loss_derivative -----------------------------------------------------------


def test_loss_derivative_zero_for_plugin_truth(vortex_dataset):
    scenario, dataset = vortex_dataset
    m = plugin_truth_model(scenario)
    states, _, derivs, times = _batch(dataset)
    loss = float(tr.loss_derivative(m, states, derivs, times))
    assert loss < 1e-12


def test_loss_derivative_zero_on_fabricated_labels(vortex_dataset):
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize("fhnn", seed=1, body=scenario.body, fluid=scenario.fluid)
    states, _, _, times = _batch(dataset)
    fabricated = np.asarray(m.derivative(states, times))
    assert float(tr.loss_derivative(m, states, fabricated, times)) == 0.0


def test_loss_derivative_invariant_under_batch_duplication(vortex_dataset):
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize("fhnn", seed=2, body=scenario.body, fluid=scenario.fluid)
    states, _, derivs, times = _batch(dataset)
    single = float(tr.loss_derivative(m, states, derivs, times))
    doubled = float(
        tr.loss_derivative(
            m,
            np.concatenate([states, states]),
            np.concatenate([derivs, derivs]),
            np.concatenate([times, times]),
        )
    )
    assert doubled == pytest.approx(single, rel=1e-15)


# -- loss_step -------------------------------------------------------------------


def test_loss_step_reduces_to_state_gap_for_zero_derivative():
    desc = md.make_descriptor("neural_ode")
    params = md.init_params(desc)
    for name in params.names():
        params[name] = np.zeros_like(params[name])
    m = md.DynamicsModel(descriptor=desc, params=params)
    rng = np.random.default_rng(0)
    states = np.concatenate([rng.normal(size=(8, 2)), np.zeros((8, 2))], axis=1)
    nexts = np.concatenate([rng.normal(size=(8, 2)), np.zeros((8, 2))], axis=1)
    want = np.mean(np.sum((states - nexts) ** 2, axis=1))
    got = float(tr.loss_step(m, states, nexts, np.zeros(8), 0.05))
    assert got == pytest.approx(want, rel=1e-15)


def test_loss_step_tiny_for_plugin_truth(vortex_dataset):
    scenario, dataset = vortex_dataset
    m = plugin_truth_model(scenario)
    states, nexts, _, times = _batch(dataset)
    loss = float(tr.loss_step(m, states, nexts, times, 0.05))
    assert loss < 1e-10  # bounded by the generator's integration accuracy


def test_loss_step_gradient_matches_finite_differences(vortex_dataset):
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize("fhnn", seed=3, body=scenario.body, fluid=scenario.fluid)
    states, nexts, _, times = _batch(dataset, k=4)
    rng = np.random.default_rng(5)
    coords = sample_coords(dict(m.params.items()), rng, per_tensor=4)

    def f(vals):
        return float(tr.loss_step(m, states, nexts, times, 0.05, params=vals))

    tape = ad.Tape()
    leaves = m.params.as_leaves(tape)
    total = tr.loss_step(m, states, nexts, times, 0.05, params=leaves)
    ad.backward(tape, total)
    got = ad.parameter_gradients(tape, leaves)
    want = fd_gradient(f, dict(m.params.items()), h=1e-5, coords=coords)
    bad = grad_mismatches(got, want, rel_tol=1e-5, abs_floor=1e-9)
    assert not bad, bad[:5]


# -- loss_smooth -----------------------------------------------------------------


def test_loss_smooth_zero_for_zero_stream_weights():
    m = md.DynamicsModel.initialize("fhnn", seed=4)
    for name in m.params.names():
        if name.startswith("stream."):
            m.params[name] = np.zeros_like(m.params[name])
    pts = np.random.default_rng(1).normal(size=(10, 2))
    assert float(tr.loss_smooth(m, pts, 1.0)) == 0.0


def test_loss_smooth_quadratic_streamfunction_value():
    # softplus units crafted so psi ~ 0.5(x^2+y^2): ||H||_F^2 = 2 per point
    eps = 1e-4
    desc = md.ModelDescriptor("fhnn", hidden=(2,), activation="softplus")
    params = ad.ParamStore()
    params.add("stream.W0", eps * np.eye(2))
    params.add("stream.b0", np.zeros(2))
    params.add("stream.W1", np.full((1, 2), 4.0 / eps**2))
    params.add("stream.b1", np.zeros(1))
    for i in range(2):
        params.add(f"coeff.W{i}", np.zeros((2 if i == 0 else 4, 2)))
        params.add(f"coeff.b{i}", np.zeros(2 if i == 0 else 4))
    m = md.DynamicsModel(descriptor=desc, params=params)
    pts = np.random.default_rng(2).uniform(-2, 2, size=(20, 2))
    lam = 1e-3
    got = float(tr.loss_smooth(m, pts, lam))
    assert got == pytest.approx(lam * 2.0, rel=1e-6)


def test_loss_smooth_zero_weight_lambda(vortex_dataset):
    scenario, _ = vortex_dataset
    m = md.DynamicsModel.initialize("fhnn", seed=5)
    pts = np.random.default_rng(3).normal(size=(6, 2))
    assert tr.loss_smooth(m, pts, 0.0) == 0.0


def test_loss_smooth_vanishes_for_relu_variant():
    m = md.DynamicsModel.initialize("relu", seed=6)
    pts = np.random.default_rng(4).normal(size=(6, 2))
    assert float(tr.loss_smooth(m, pts, 1.0)) == 0.0


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
    # shared-stage evaluation must equal the standalone losses bitwise
    assert parts.l_deriv == float(tr.loss_derivative(m, states, derivs, times))
    assert parts.l_step == float(tr.loss_step(m, states, nexts, times, 0.05))
    assert parts.l_smooth == float(tr.loss_smooth(m, states[:, :2], weights.lambda_flow))


@pytest.mark.parametrize("mode", ["numpy", "tape"])
def test_training_losses_shares_one_order_two_stream_jet(vortex_dataset, monkeypatch, mode):
    # RK4 stage 1 reads the smoothness term's jet: one order-2 call, and
    # order 1 only for stages 2-4
    scenario, dataset = vortex_dataset
    m = md.DynamicsModel.initialize("fhnn", seed=7, body=scenario.body, fluid=scenario.fluid)
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
    tr.training_losses(m, states, nexts, derivs, times, 0.05, tr.LossWeights(), params=params)
    assert sorted(orders) == [1, 1, 1, 2]
    # 232 nodes when stage 1 recorded its own order-1 stream node (4 nodes)
    assert len(tape) == (228 if mode == "tape" else 0)


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
    states, nexts, _, times = _batch(dataset, k=1)
    rng = np.random.default_rng(11)
    coords = sample_coords(dict(m.params.items()), rng, per_tensor=5)

    def f(vals):
        return float(tr.loss_step(m, states, nexts, times, 0.05, params=vals))

    tape = ad.Tape()
    leaves = m.params.as_leaves(tape)
    ad.backward(tape, tr.loss_step(m, states, nexts, times, 0.05, params=leaves))
    got = ad.parameter_gradients(tape, leaves)
    want = fd_gradient(f, dict(m.params.items()), h=1e-5, coords=coords)
    bad = grad_mismatches(got, want, rel_tol=1e-5, abs_floor=1e-10)
    assert not bad, bad[:5]


# -- schedule ------------------------------------------------------------------------


def test_learning_rate_schedule_is_piecewise():
    config = tr.TrainConfig(epochs=2000, base_lr=1e-3)
    assert tr.learning_rate(config, 1) == 1e-3
    assert tr.learning_rate(config, 999) == 1e-3
    assert tr.learning_rate(config, 1000) == 5e-4
    assert tr.learning_rate(config, 1499) == 5e-4
    assert tr.learning_rate(config, 1500) == 2.5e-4
    assert tr.learning_rate(config, 2000) == 2.5e-4
    custom = tr.TrainConfig(epochs=10, base_lr=1.0, lr_milestones=(3, 7), lr_factors=(0.1, 0.5))
    assert tr.learning_rate(custom, 2) == 1.0
    assert tr.learning_rate(custom, 3) == 0.1
    assert tr.learning_rate(custom, 7) == pytest.approx(0.05)


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        tr.TrainConfig(epochs=0)
    with pytest.raises(ConfigurationError):
        tr.TrainConfig(lr_milestones=(5,), lr_factors=())
    with pytest.raises(ConfigurationError):
        tr.TrainConfig(lr_milestones=(5, 5), lr_factors=(0.5, 0.5))
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


def test_write_log_csv_roundtrip(tmp_path):
    rows = [tr.EpochLog(1, 1e-3, 0.5, 0.25, 0.01, 0.76, 0.8), tr.EpochLog(2, 1e-3, 0.4, 0.2, 0.01, 0.61, 0.7)]
    path = tmp_path / "log.csv"
    tr.write_log_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,l_deriv,l_step,l_smooth,total,val_total"
    assert len(lines) == 3
    assert lines[1].startswith("1,0.001,0.5,0.25,0.01,")


def test_transition_pairs_shapes(vortex_dataset):
    _, dataset = vortex_dataset
    states, nexts, derivs, times = tr.transition_pairs(dataset.split("train"))
    per_traj = len(dataset.trajectories[0].times) - 1
    assert states.shape == (6 * per_traj, 4)
    assert nexts.shape == states.shape
    assert derivs.shape == states.shape
    assert times.shape == (6 * per_traj,)


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
