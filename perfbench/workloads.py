"""The three benchmark workloads: set-up, timed pipeline reps, checks and probe.

Every workload runs in this one process, with no worker threads or
processes.  A rep is one generate -> train -> evaluate pipeline
(``gen_rollout``: generate -> rollout).  Reps repeat until the time budget
is spent, and every rep of a run uses the same seeded inputs, so their
results must be bitwise identical.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import time
from dataclasses import dataclass, field
from statistics import median, quantiles

import numpy as np

from floatdyn import autodiff as ad
from floatdyn import model as md
from floatdyn import physics as ph
from floatdyn import training as tr
from oracles import fd_gradient, grad_mismatches, sample_coords

from tracing import StepClock, Tracer

SETUP_REPEATS = 5
ROLLOUT_STEP = 0.01
# generate_dataset seeds trajectory i with seed ^ i, so --seed 1 would redraw
# most of seed 0's starts; spacing seeds 2**10 apart keeps start sets disjoint
# for up to 1024 trajectories
DATA_SEED_STRIDE = 1 << 10
PROBE_BATCH = 32
PROBE_ROWS = 2
PROBE_DURATION = 0.1
FD_PER_TENSOR = 2
FD_REL_TOL = 1e-4  # the tolerance of tier-1's total-loss gradient oracle
FD_ABS_FLOOR = 1e-9
LABEL_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    scenario: str
    variant: str
    n_train: int
    n_test: int
    duration: float
    epochs: int  # 0: no training; the seeded model is rolled out as initialised
    why: str


WORKLOADS = {
    "train_fhnn": Workload(
        "steady_vortex", "fhnn", 20, 4, 8.0, 8,
        "the paper's model: stream_eval at order 1 and 2 and a 408-node tape per step",
    ),
    "train_node": Workload(
        "steady_vortex", "neural_ode", 20, 4, 8.0, 8,
        "control for stream_eval work: a 53-node tape, fused forward_mlp, no stream_eval",
    ),
    "gen_rollout": Workload(
        "noisy_flow", "fhnn", 6, 2, 4.0, 0,
        "per-trajectory integrate calls and numpy-mode rollout; the tape is unused",
    ),
}


@dataclass
class Rep:
    """Measurements and outputs of one pipeline rep."""

    gen_s: float
    train_s: float
    eval_s: float
    gen_samples: int
    rollout_row_steps: int
    steps: int
    digest: str
    val_loss: float = math.nan
    rollout_pos_rmse: float = math.nan
    diverged: int = 0

    @property
    def pipeline_s(self) -> float:
        return self.gen_s + self.train_s + self.eval_s


@dataclass
class Context:
    """What set-up builds and every rep reuses."""

    workload: Workload
    seed: int
    scenario: ph.Scenario
    dataset: ph.Dataset
    # outputs of the last rep, kept for the correctness checks
    last_dataset: ph.Dataset | None = None
    last_model: md.DynamicsModel | None = None
    last_rollout: md.Rollout | None = None
    last_starts: np.ndarray | None = None
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def params_digest(params: ad.ParamStore) -> str:
    return digest(*(params[name] for name in sorted(params.names())))


def data_seed(seed: int) -> int:
    return seed * DATA_SEED_STRIDE


def generate(w: Workload, scenario: ph.Scenario, seed: int, duration: float | None = None):
    return ph.generate_dataset(
        scenario, w.n_train, w.n_test, duration=w.duration if duration is None else duration, seed=seed
    )


def dataset_starts(dataset: ph.Dataset) -> np.ndarray:
    return np.stack([t.states[0] for t in dataset.trajectories])


def rollout_states(dataset: ph.Dataset, split: str | None):
    trajs = dataset.trajectories if split is None else dataset.split(split)
    s0 = np.stack([t.states[0] for t in trajs])
    truth = np.stack([t.states for t in trajs], axis=1)  # (C, N, 4)
    return s0, trajs[0].times, truth


# -- set-up --------------------------------------------------------------------


def setup(w: Workload, seed: int) -> Context:
    """Set-up of one run: the training dataset, or a warm-up for gen_rollout."""
    scenario = ph.make_scenario(w.scenario)
    if w.epochs:
        dataset = generate(w, scenario, data_seed(seed))
    else:
        # gen_rollout generates in its timed reps; set-up warms the same
        # code paths on a short dataset, which the variant probe reuses
        dataset = generate(w, scenario, data_seed(seed), duration=1.0)
        model = md.DynamicsModel.initialize(w.variant, seed=seed, body=scenario.body, fluid=scenario.fluid)
        s0, _, _ = rollout_states(dataset, None)
        md.rollout_model(model.derivative, s0, 1.0, ROLLOUT_STEP)
    return Context(w, seed, scenario, dataset)


# -- pipeline reps -------------------------------------------------------------


def run_rep(ctx: Context) -> Rep:
    w, sc = ctx.workload, ctx.scenario
    t0 = time.perf_counter()
    dataset = generate(w, sc, data_seed(ctx.seed))
    gen_s = time.perf_counter() - t0
    gen_samples = sum(len(t.times) for t in dataset.trajectories)

    t0 = time.perf_counter()
    model = md.DynamicsModel.initialize(w.variant, seed=ctx.seed, body=sc.body, fluid=sc.fluid)
    result = None
    if w.epochs:
        result = tr.train(model, dataset, tr.TrainConfig(epochs=w.epochs))
    train_s = time.perf_counter() - t0

    s0, times, truth = rollout_states(dataset, "test" if w.epochs else None)
    t0 = time.perf_counter()
    rollout = md.rollout_model(model.derivative, s0, float(times[-1]), ROLLOUT_STEP, checkpoints=list(times))
    eval_s = time.perf_counter() - t0

    ctx.last_dataset, ctx.last_model, ctx.last_rollout, ctx.last_starts = dataset, model, rollout, s0
    n_steps = int(round(times[-1] / ROLLOUT_STEP))
    rep = Rep(
        gen_s=gen_s,
        train_s=train_s,
        eval_s=eval_s,
        gen_samples=gen_samples,
        rollout_row_steps=n_steps * len(s0),
        steps=0,
        digest=digest(rollout.states, *(t.states for t in dataset.trajectories)),
        diverged=int(np.sum(rollout.diverged)),
    )
    if result is not None:
        err = rollout.states[..., :2] - truth[..., :2]
        rep.val_loss = result.log[-1].val_total
        rep.rollout_pos_rmse = float(np.sqrt(np.mean(np.sum(err * err, axis=-1))))
        rep.digest = params_digest(result.params) + "/" + rep.digest
    return rep


def run_reps(ctx: Context, seconds: float, tracer: Tracer | None = None):
    """Reps until the next would overrun ``seconds``; at least two of each kind.

    With a tracer, traced reps alternate with untraced ones, so that drift
    over the run falls on both alike.  Returns the untraced reps, the traced
    reps and the wall time of every untraced training step.
    """
    untraced: list[Rep] = []
    traced: list[Rep] = []
    step_s: list[float] = []
    until = time.perf_counter() + seconds
    min_reps = 2 if tracer is None else 4
    while True:
        done = untraced + traced
        if len(done) >= min_reps and time.perf_counter() + median(r.pipeline_s for r in done) > until:
            return untraced, traced, step_s
        # a pipeline in a fresh process never pays for an earlier one's tapes
        gc.collect()
        if tracer is not None and len(done) % 2 == 1:
            tracer.rep = len(traced)
            with tracer:
                traced.append(run_rep(ctx))
            continue
        with StepClock() as clock:
            rep = run_rep(ctx)
        rep.steps = len(clock.step_s)
        step_s.extend(clock.step_s)
        untraced.append(rep)


# -- correctness checks ---------------------------------------------------------


def check_labels(ctx: Context) -> None:
    """Derivative labels equal Scenario.derivative_fn at every sample."""
    worst = 0.0
    for t in ctx.last_dataset.trajectories:
        f = ctx.scenario.derivative_fn(ctx.scenario.trajectory_flow(t.seed))
        want = f(t.states, t.times)
        scale = max(1.0, float(np.max(np.abs(want))))
        worst = max(worst, float(np.max(np.abs(t.derivs - want))) / scale)
    ctx.check("labels_match_derivative_fn", worst <= LABEL_TOL, f"max rel diff {worst:.3g}")


def check_fd_gradients(ctx: Context) -> None:
    """Tape gradients of the first training step against central differences."""
    w, sc = ctx.workload, ctx.scenario
    config = tr.TrainConfig(epochs=w.epochs)
    core, _ = tr.split_train_val(ctx.dataset.split("train"), config.n_val)
    pairs = tr.transition_pairs(core)
    idx = np.random.default_rng(config.seed).permutation(len(pairs[0]))[: config.batch_size]
    states, nexts, derivs, times = (a[idx] for a in pairs)
    dt = core[0].dt
    model = md.DynamicsModel.initialize(w.variant, seed=ctx.seed, body=sc.body, fluid=sc.fluid)

    def loss(values):
        total, _ = tr.training_losses(model, states, nexts, derivs, times, dt, config.weights, params=values)
        return float(total.value if isinstance(total, ad.Var) else total)

    tape = ad.Tape()
    leaves = model.params.as_leaves(tape)
    total, _ = tr.training_losses(model, states, nexts, derivs, times, dt, config.weights, params=leaves)
    ad.backward(tape, total)
    got = ad.parameter_gradients(tape, leaves)
    params = dict(model.params.items())
    coords = sample_coords(params, np.random.default_rng(ctx.seed), per_tensor=FD_PER_TENSOR)
    want = fd_gradient(loss, params, h=1e-5, coords=coords)
    bad = grad_mismatches(got, want, rel_tol=FD_REL_TOL, abs_floor=FD_ABS_FLOOR)
    n = sum(len(c) for c in coords.values())
    ctx.check("fd_gradients_first_step", not bad, f"{n} coords, {len(bad)} off" + (f": {bad[0]}" if bad else ""))


def check_rollout(ctx: Context) -> None:
    """The rollout's first checkpoint equals physics.integrate on the same model."""
    ro, model = ctx.last_rollout, ctx.last_model
    t1 = float(ro.times[1])
    _, states = ph.integrate(model.derivative, ctx.last_starts, 0.0, t1, ROLLOUT_STEP)
    diff = float(np.max(np.abs(ro.states[1] - states[-1])))
    ok = diff <= 1e-12 * max(1.0, float(np.max(np.abs(states[-1]))))
    ctx.check("rollout_matches_integrate", ok, f"max abs diff {diff:.3g} at t={t1}")
    ctx.check(
        "rollout_diverged_flags_recorded",
        ro.diverged.shape == (len(ctx.last_starts),),
        f"{int(np.sum(ro.diverged))} of {len(ctx.last_starts)} rows diverged",
    )


def start_overlap(a: np.ndarray, b: np.ndarray) -> int:
    rows = {r.tobytes() for r in b}
    return sum(r.tobytes() in rows for r in a)


def check_starts(ctx: Context) -> dict:
    """Digest of the start states; a fresh seed must not reuse the default's starts."""
    w, sc = ctx.workload, ctx.scenario
    short = lambda seed: dataset_starts(generate(w, sc, seed, duration=0.05))  # noqa: E731
    starts = dataset_starts(ctx.last_dataset)
    default = short(0)
    overlap = start_overlap(starts, default)
    naive = start_overlap(short(ctx.seed), default) if ctx.seed else 0
    ctx.check(
        "fresh_seed_starts_disjoint_from_default",
        ctx.seed == 0 or overlap == 0,
        f"{overlap} of {len(starts)} start states shared with seed 0",
    )
    return {
        "start_digest": digest(starts),
        "start_overlap_with_default": overlap,
        "naive_seed_overlap_with_default": naive,
    }


def run_checks(ctx: Context, reps: list[Rep], setup_digests: list[str]) -> dict:
    w = ctx.workload
    check_labels(ctx)
    if w.epochs:
        check_fd_gradients(ctx)
        ctx.check("val_loss_finite", all(math.isfinite(r.val_loss) for r in reps))
    check_rollout(ctx)
    ctx.check("reps_bitwise_identical", len({r.digest for r in reps}) == 1, reps[0].digest)
    ctx.check("setup_deterministic", len(set(setup_digests)) == 1, setup_digests[0])
    return check_starts(ctx)


# -- variant probe --------------------------------------------------------------


def variant_probe(ctx: Context) -> list[str]:
    """One tape step and a short rollout per variant; returns the failed ops."""
    sc = ctx.scenario
    train = ctx.dataset.split("train")
    states, nexts, derivs, times = (a[:PROBE_BATCH] for a in tr.transition_pairs(train))
    s0 = dataset_starts(ctx.dataset)[:PROBE_ROWS]
    failed = []
    for variant in md.VARIANTS:
        model = md.DynamicsModel.initialize(variant, seed=ctx.seed, body=sc.body, fluid=sc.fluid)
        try:
            tape = ad.Tape()
            leaves = model.params.as_leaves(tape)
            total, _ = tr.training_losses(
                model, states, nexts, derivs, times, train[0].dt, tr.LossWeights(), params=leaves
            )
            ad.backward(tape, total)
            ad.adam_step(model.params, ad.parameter_gradients(tape, leaves), ad.AdamState.for_params(model.params, lr=1e-3))
            if not all(np.all(np.isfinite(v)) for _, v in model.params.items()):
                raise FloatingPointError("non-finite parameters after one step")
        except Exception as err:  # a failing variant is recorded, not skipped
            failed.append(f"{variant} tape step: {type(err).__name__}: {err}")
        try:
            ro = md.rollout_model(model.derivative, s0, PROBE_DURATION, ROLLOUT_STEP)
            if not np.all(np.isfinite(ro.states)):
                raise FloatingPointError("non-finite rollout states")
        except Exception as err:
            failed.append(f"{variant} rollout: {type(err).__name__}: {err}")
    return failed


# -- one run --------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    setup_s, setup_digests = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = setup(w, seed)
        setup_s.append(time.perf_counter() - t0)
        setup_digests.append(digest(*(t.states for t in ctx.dataset.trajectories)))

    tracer = Tracer() if trace else None
    reps, traced, step_s = run_reps(ctx, seconds, tracer)
    if tracer is not None:
        mismatches = tracer.count_mismatches()
        ctx.check("traced_counts_repeat", not mismatches, "; ".join(mismatches) or f"{len(traced)} traced reps")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    details = run_checks(ctx, reps + traced, setup_digests)
    probe_failed = variant_probe(ctx)
    # ops: the distinct operations of a run, so that the count does not
    # depend on how many reps fit in the time budget.  Every rep repeats one
    # pipeline (its training steps, generate_dataset and rollout), checked
    # bitwise identical, so the pipeline counts once; then the probe's ops.
    attempted = reps[0].steps + 2 + 2 * len(md.VARIANTS)
    failed = len(probe_failed)

    pipeline = [r.pipeline_s for r in reps]
    e2e = {
        "setup_s": (median(setup_s), "s"),
        "pipeline_s": (median(pipeline), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "gen_samples_per_s": (median(r.gen_samples / r.gen_s for r in reps), "1/s"),
        "rollout_steps_per_s": (median(r.rollout_row_steps / r.eval_s for r in reps), "1/s"),
    }
    extra = {"ops_failed_frac": (failed / attempted, "ratio")}
    if w.epochs:
        r0, samples = reps[0], _samples(ctx)
        extra.update(
            train_samples_per_s=(median(samples / r.train_s for r in reps), "1/s"),
            step_ms_p50=(median(step_s) * 1e3, "ms"),
            step_ms_p90=(quantiles(step_s, n=10)[-1] * 1e3, "ms"),
            val_loss=(r0.val_loss, "loss"),
            rollout_pos_rmse=(r0.rollout_pos_rmse, "m"),
        )
    details.update(
        reps=len(reps),
        steps=len(step_s),
        param_digest=reps[0].digest,
        diverged_rows=reps[0].diverged,
        probe_failed=probe_failed,
    )
    out = {
        "checks": ctx.checks,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "extra": extra,
        "details": details,
        "reps": [vars(r) for r in reps],
    }
    if tracer is not None:
        traced_pipeline = median(r.pipeline_s for r in traced)
        out["per_layer"] = tracer.layer_metrics(traced_pipeline / median(pipeline) - 1.0)
        out["self_times"] = tracer.self_times()
        out["spans"] = tracer.spans()
    return out


def _samples(ctx: Context) -> int:
    """Training samples one pipeline processes: epochs x core transitions."""
    config = tr.TrainConfig(epochs=ctx.workload.epochs)
    core, _ = tr.split_train_val(ctx.dataset.split("train"), config.n_val)
    return config.epochs * sum(len(t.times) - 1 for t in core)
