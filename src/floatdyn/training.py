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
from dataclasses import astuple, dataclass, field, fields
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


@dataclass(frozen=True)
class LossWeights:
    """Weights on the three objective terms; lambda_flow scales the Hessian penalty."""

    w_deriv: float = 1.0
    w_step: float = 1.0
    lambda_flow: float = 1e-4

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0.0 <= v < np.inf:
                raise ConfigurationError(f"loss weight {f.name} must be finite and >= 0, got {v}")


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
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    n_val: int = 8
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if not (self.epochs >= 1 and self.batch_size >= 1):
            raise ConfigurationError("epochs and batch_size must be >= 1")
        if not 0.0 <= self.base_lr < np.inf:
            raise ConfigurationError(f"base_lr must be finite and >= 0, got {self.base_lr}")


def learning_rate(config: TrainConfig, epoch: int) -> float:
    """The rate of the (1-based) epoch: ``base_lr``, halved from epoch
    ``epochs // 2`` on and halved again from ``3 * epochs // 4`` on."""
    lr = config.base_lr
    for milestone in (config.epochs // 2, (3 * config.epochs) // 4):
        if epoch >= milestone:
            lr *= 0.5
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


def _smoothness(model: DynamicsModel, positions: Array, lambda_flow: float, params=None):
    """The order-2 psi jet at ``positions`` and the Hessian penalty built on it.

    Returns (None, 0.0) when the dynamics never read the stream network
    (a variant that learns no flow, or a model with ``flow_override``) or
    the penalty has zero weight.
    """
    if not model.descriptor.learns_flow or model.flow_override is not None or lambda_flow == 0.0:
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

    ``l_deriv`` and ``l_step`` are the mean squared errors of f(s, t)
    against the labels and of one RK4 step of size ``delta`` against
    ``next_states``; ``l_smooth`` is ``lambda_flow`` times the mean squared
    Frobenius norm of the psi Hessian.  The derivative match is the RK4
    step's first stage, and that stage reuses the smoothness term's order-2
    jet, whose psi and gradient columns are bitwise the order-1 evaluation;
    so each term equals its own definition bit for bit.  Returns
    (total, LossBreakdown) where total is a Var in tape mode.
    """
    n = len(states)
    jet, l_smooth = _smoothness(model, states[:, :2], weights.lambda_flow, params=params)
    f = lambda s, t: model.derivative(s, t, params=params)
    d1 = model.derivative(states, times, params=params, jet=jet)
    l_deriv = _mean_sq_norm(d1 - derivs, n)
    phi = ph.rk4_step(f, states, times, delta, k1=d1)
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


def validation_total(model: DynamicsModel, batch, delta: float, config: TrainConfig) -> float:
    """Mean total loss over the rows of ``batch`` in numpy mode.

    ``batch`` is (states, next_states, derivs, times) as from
    :func:`transition_pairs`.  The rows go through ``training_losses`` in
    chunks of ``config.batch_size``, the training steps' own size, so the
    pass's arrays stay as small as one step's whatever the row count; the
    result is the row-weighted mean of the chunk totals, which equals one
    call over all rows up to rounding.
    """
    states, next_states, derivs, times = batch
    n = len(states)
    weighted = 0.0
    for lo in range(0, n, config.batch_size):
        rows = slice(lo, lo + config.batch_size)
        _, parts = training_losses(
            model, states[rows], next_states[rows], derivs[rows], times[rows], delta, config.weights
        )
        weighted += (min(lo + config.batch_size, n) - lo) * parts.total
    return weighted / n


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


LOG_COLUMNS = tuple(f.name for f in fields(EpochLog))


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
            writer.writerow([repr(v) if isinstance(v, float) else v for v in astuple(entry)])


def train(
    model: DynamicsModel,
    dataset: Dataset,
    config: TrainConfig,
    checkpoint_dir=None,
) -> TrainResult:
    """Minibatch Adam over the training split; test trajectories are never touched.

    Mutates ``model.params`` in place and returns the final and
    best-by-validation parameters plus the per-epoch loss log, which is
    also reported epoch by epoch at INFO level on this module's logger.
    Validation runs after every epoch over the held-out rows in chunks of
    ``batch_size`` rows (see :func:`validation_total`).  A
    non-finite loss or gradient aborts with TrainingDivergedError whose
    ``result`` attribute carries the log and the last healthy parameters.
    """
    train_all = dataset.split("train")
    if not train_all:
        raise ConfigurationError("dataset has no training trajectories")
    dt = train_all[0].dt
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

    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None

    for epoch in range(1, config.epochs + 1):
        lr = learning_rate(config, epoch)
        adam.lr = lr
        perm = rng.permutation(n)
        sums = np.zeros(4)
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            # the last step's tape lives on through this forward, until
            # ``total`` is rebound, so two tapes (about 4.4 MB each for
            # fhnn at batch 256) are alive at once: freed any earlier, glibc
            # trims the heap top and the forward faults it back in page by page
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
        means = (sums / n).tolist()
        val_total = float("nan") if val_batch is None else validation_total(model, val_batch, dt, config)
        entry = EpochLog(epoch, lr, *means, val_total)
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
