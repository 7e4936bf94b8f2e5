"""Losses and the training loop.

Three loss terms drive identification: an instantaneous derivative match,
a one-RK4-step state match over the sampling interval, and a Hessian
penalty that keeps the learned streamfunction smooth.  The loop runs
minibatch Adam with a piecewise-decaying learning rate over training
trajectories only, holds out a few of them for model selection, and is
bitwise deterministic under a fixed seed.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import physics as ph
from .autodiff import ConfigurationError, TrainingDivergedError
from .model import DynamicsModel, stream_eval
from .physics import Dataset, Trajectory

Array = np.ndarray

logger = logging.getLogger(__name__)

LOG_COLUMNS = ("epoch", "lr", "l_deriv", "l_step", "l_smooth", "total", "val_total")


@dataclass(frozen=True)
class LossWeights:
    """Weights on the three objective terms; lambda_flow scales the Hessian penalty."""

    w_deriv: float = 1.0
    w_step: float = 1.0
    lambda_flow: float = 1e-4

    def __post_init__(self) -> None:
        if min(self.w_deriv, self.w_step, self.lambda_flow) < 0.0:
            raise ConfigurationError("loss weights must be >= 0")


@dataclass
class LossBreakdown:
    l_deriv: float
    l_step: float
    l_smooth: float
    total: float


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    batch_size: int = 256
    base_lr: float = 1e-3
    lr_milestones: tuple[int, ...] = ()  # empty: halve at 50% and 75% of epochs
    lr_factors: tuple[float, ...] = ()
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    n_val: int = 8
    checkpoint_every: int = 0
    step_delta: float | None = None  # must equal the dataset dt when given

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        if self.base_lr < 0.0:
            raise ConfigurationError("base_lr must be >= 0")
        if len(self.lr_milestones) != len(self.lr_factors):
            raise ConfigurationError("lr_milestones and lr_factors must pair up")
        if any(m2 <= m1 for m1, m2 in zip(self.lr_milestones, self.lr_milestones[1:])):
            raise ConfigurationError("lr_milestones must be strictly increasing")

    def resolved_schedule(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        if self.lr_milestones:
            return self.lr_milestones, self.lr_factors
        return (self.epochs // 2, (3 * self.epochs) // 4), (0.5, 0.5)


def learning_rate(config: TrainConfig, epoch: int) -> float:
    """Pure function of the (1-based) epoch index."""
    milestones, factors = config.resolved_schedule()
    lr = config.base_lr
    for m, f in zip(milestones, factors):
        if epoch >= m:
            lr *= f
    return lr


# -- data plumbing -----------------------------------------------------------------


def transition_pairs(trajectories: Sequence[Trajectory]):
    """Flatten trajectories into (state, next_state, deriv_label, time) samples."""
    if not trajectories:
        raise ConfigurationError("no trajectories supplied")
    states, nexts, derivs, times = [], [], [], []
    for tr in trajectories:
        if tr.derivs is None:
            raise ConfigurationError(f"trajectory {tr.traj_id} has no derivative labels")
        states.append(tr.states[:-1])
        nexts.append(tr.states[1:])
        derivs.append(tr.derivs[:-1])
        times.append(tr.times[:-1])
    return (
        np.concatenate(states),
        np.concatenate(nexts),
        np.concatenate(derivs),
        np.concatenate(times),
    )


def split_train_val(trajectories: Sequence[Trajectory], n_val: int):
    """Hold out the last ``n_val`` training trajectories for model selection."""
    if n_val < 0 or n_val >= len(trajectories):
        raise ConfigurationError(
            f"n_val={n_val} must leave at least one of {len(trajectories)} trajectories"
        )
    if n_val == 0:
        return list(trajectories), []
    return list(trajectories[:-n_val]), list(trajectories[-n_val:])


# -- loss terms ----------------------------------------------------------------------


def _mean_sq_norm(err, n: int):
    """mean over samples of the squared 2-norm: sum of squares / n."""
    return ad.vsum(err * err) / float(n)


def loss_derivative(model: DynamicsModel, states: Array, derivs: Array, times, params=None):
    """Mean squared error between f(s, t) and the derivative labels."""
    d = model.derivative(states, times, params=params)
    return _mean_sq_norm(d - derivs, len(states))


def loss_step(model: DynamicsModel, states: Array, next_states: Array, times, delta: float, params=None):
    """Mean squared error of one RK4 step of size delta against the next sample."""
    phi = ph.rk4_step(lambda s, t: model.derivative(s, t, params=params), states, times, delta)
    return _mean_sq_norm(phi - next_states, len(states))


def loss_smooth(model: DynamicsModel, positions: Array, lambda_flow: float, params=None):
    """lambda_flow times the mean squared Frobenius norm of the psi Hessian."""
    return _smoothness(model, positions, lambda_flow, params)[1]


def _smoothness(model: DynamicsModel, positions: Array, lambda_flow: float, params=None):
    """The order-2 psi jet at ``positions`` and the Hessian penalty built on it.

    Returns (None, 0.0) when the model has no stream network or the
    penalty has zero weight.
    """
    if model.descriptor.variant == "neural_ode" or lambda_flow == 0.0:
        return None, 0.0
    p = model.params if params is None else params
    jet = stream_eval(p, positions[:, 0], positions[:, 1], model.descriptor, order=2)
    return jet, lambda_flow * ad.vmean(jet.hessian_frobenius_sq())


def training_losses(
    model: DynamicsModel,
    states: Array,
    next_states: Array,
    derivs: Array,
    times: Array,
    delta: float,
    weights: LossWeights,
    params=None,
):
    """All loss terms at once, sharing two evaluations between them.

    The derivative match reuses the RK4 step's first stage, and that stage
    reuses the order-2 streamfunction jet of the smoothness term, both
    taken at ``states``: the jet's psi and gradient columns are bitwise
    the order-1 evaluation.  So values are identical to calling the
    standalone loss functions.  Returns (total, LossBreakdown) where total
    is a Var in tape mode.
    """
    n = len(states)
    jet, l_smooth = _smoothness(model, states[:, :2], weights.lambda_flow, params=params)
    f = lambda s, t: model.derivative(s, t, params=params)
    d1 = model.derivative(states, times, params=params, jet=jet)
    l_deriv = _mean_sq_norm(d1 - derivs, n)

    half = 0.5 * delta
    k2 = f(states + half * d1, times + half)
    k3 = f(states + half * k2, times + half)
    k4 = f(states + delta * k3, times + delta)
    phi = states + (delta / 6.0) * (d1 + 2.0 * k2 + 2.0 * k3 + k4)
    l_step = _mean_sq_norm(phi - next_states, n)

    total = weights.w_deriv * l_deriv + weights.w_step * l_step + l_smooth
    breakdown = LossBreakdown(
        l_deriv=float(_scalar(l_deriv)),
        l_step=float(_scalar(l_step)),
        l_smooth=float(_scalar(l_smooth)),
        total=float(_scalar(total)),
    )
    return total, breakdown


def _scalar(x) -> float:
    return float(x.value if isinstance(x, ad.Var) else x)


# -- training loop ----------------------------------------------------------------------


@dataclass
class EpochLog:
    epoch: int
    lr: float
    l_deriv: float
    l_step: float
    l_smooth: float
    total: float
    val_total: float

    def row(self):
        return [self.epoch, self.lr, self.l_deriv, self.l_step, self.l_smooth, self.total, self.val_total]


@dataclass
class TrainResult:
    params: ad.ParamStore
    best_params: ad.ParamStore
    best_epoch: int
    best_val: float
    log: list[EpochLog]


class TrainingAborted(TrainingDivergedError):
    """Training hit a non-finite loss/gradient; carries the last-good state."""

    def __init__(self, message: str, result: TrainResult, checkpoint_path=None):
        super().__init__(message)
        self.result = result
        self.checkpoint_path = checkpoint_path


def write_log_csv(path, log: Sequence[EpochLog]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for entry in log:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in entry.row()])


def train(
    model: DynamicsModel,
    dataset: Dataset,
    config: TrainConfig,
    checkpoint_dir=None,
) -> TrainResult:
    """Minibatch Adam over the training split; test trajectories are never touched.

    Mutates ``model.params`` in place and returns the final and
    best-by-validation parameters plus the per-epoch loss log, which is
    also reported epoch by epoch at INFO level on this module's logger.  A
    non-finite loss or gradient aborts with TrainingDivergedError whose
    ``result`` attribute carries the log and the last healthy parameters.
    """
    train_all = dataset.split("train")
    if not train_all:
        raise ConfigurationError("dataset has no training trajectories")
    dt = train_all[0].dt
    if config.step_delta is not None and abs(config.step_delta - dt) > 1e-12:
        raise ConfigurationError(
            f"step_delta {config.step_delta} must equal the dataset dt {dt}"
        )
    core, val = split_train_val(train_all, min(config.n_val, max(len(train_all) - 1, 0)))
    states, nexts, derivs, times = transition_pairs(core)
    val_batch = transition_pairs(val) if val else None

    n = len(states)
    rng = np.random.default_rng(config.seed)
    adam = ad.AdamState.for_params(model.params, lr=config.base_lr)
    log: list[EpochLog] = []
    best_params = model.params.copy()
    best_val = np.inf
    best_epoch = 0

    def _validation_total() -> float:
        if val_batch is None:
            return float("nan")
        _, parts = training_losses(
            model, val_batch[0], val_batch[1], val_batch[2], val_batch[3], dt, config.weights
        )
        return parts.total

    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None

    for epoch in range(1, config.epochs + 1):
        lr = learning_rate(config, epoch)
        adam.lr = lr
        perm = rng.permutation(n)
        sums = np.zeros(4)
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            tape = ad.Tape()
            leaves = model.params.as_leaves(tape)
            total, parts = training_losses(
                model, states[idx], nexts[idx], derivs[idx], times[idx], dt, config.weights, params=leaves
            )
            if not np.isfinite(parts.total):
                raise _abort(model, best_params, best_epoch, best_val, log, epoch, checkpoint_dir)
            ad.backward(tape, total)
            grads = ad.parameter_gradients(tape, leaves)
            try:
                ad.adam_step(model.params, grads, adam)
            except TrainingDivergedError as err:
                raise _abort(model, best_params, best_epoch, best_val, log, epoch, checkpoint_dir) from err
            sums += len(idx) * np.array([parts.l_deriv, parts.l_step, parts.l_smooth, parts.total])
        means = sums / n
        val_total = _validation_total()
        entry = EpochLog(epoch, lr, means[0], means[1], means[2], means[3], val_total)
        log.append(entry)
        if val_batch is not None and val_total < best_val:
            best_val = val_total
            best_epoch = epoch
            best_params = model.params.copy()
        if checkpoint_dir and config.checkpoint_every and epoch % config.checkpoint_every == 0:
            _save(model, model.params, checkpoint_dir / f"epoch{epoch:05d}.json", epoch)
        logger.info(
            "epoch %5d  lr %.2e  l_deriv %.3e  l_step %.3e  l_smooth %.3e  total %.3e  val %.3e",
            epoch, lr, means[0], means[1], means[2], means[3], val_total,
        )

    if val_batch is None:
        best_params = model.params.copy()
        best_epoch = config.epochs
        best_val = log[-1].total if log else float("nan")
    result = TrainResult(
        params=model.params,
        best_params=best_params,
        best_epoch=best_epoch,
        best_val=float(best_val),
        log=log,
    )
    if checkpoint_dir:
        _save(model, result.best_params, checkpoint_dir / "best.json", result.best_epoch)
        _save(model, result.params, checkpoint_dir / "final.json", config.epochs)
    return result


def _save(model: DynamicsModel, params: ad.ParamStore, path: Path, epoch: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {"descriptor": model.descriptor.to_metadata(), "epoch": epoch}
    ad.save_checkpoint(path, params, meta)


def _abort(model, best_params, best_epoch, best_val, log, epoch, checkpoint_dir) -> TrainingAborted:
    result = TrainResult(
        params=model.params,
        best_params=best_params if log else model.params.copy(),
        best_epoch=best_epoch,
        best_val=float(best_val),
        log=log,
    )
    path = None
    if checkpoint_dir:
        path = Path(checkpoint_dir) / "last_good.json"
        _save(model, result.best_params, path, result.best_epoch)
    return TrainingAborted(
        f"non-finite loss or gradient in epoch {epoch}; last-good checkpoint retained",
        result,
        checkpoint_path=path,
    )
