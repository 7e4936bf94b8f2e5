"""Shared independent oracles for the test suite.

Central finite differences here are the reference the tape's backward
pass is checked against; they must stay independent of the autodiff
implementation (they only call the forward path).
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np


def central_diff_scalar(f: Callable[[float], float], x: float, h: float = 1e-5) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd_gradient(
    f: Callable[[Mapping[str, np.ndarray]], float],
    params: Mapping[str, np.ndarray],
    h: float = 1e-5,
    coords: Mapping[str, list[tuple[int, ...]]] | None = None,
) -> dict[str, np.ndarray]:
    """Central-difference gradient of ``f`` at ``params``.

    If ``coords`` is given, only those flat positions are filled per
    tensor (the rest stay NaN so accidental use fails loudly).
    """
    work = {k: np.array(v, dtype=np.float64, copy=True) for k, v in params.items()}
    out: dict[str, np.ndarray] = {}
    for name, base in work.items():
        if coords is None:
            idx_list = list(np.ndindex(base.shape))
        elif name in coords:
            idx_list = coords[name]
        else:
            idx_list = []
        g = np.full(base.shape, np.nan)
        for idx in idx_list:
            orig = base[idx]
            base[idx] = orig + h
            fp = f(work)
            base[idx] = orig - h
            fm = f(work)
            base[idx] = orig
            g[idx] = (fp - fm) / (2.0 * h)
        out[name] = g
    return out


def grad_mismatches(
    got: Mapping[str, np.ndarray],
    want: Mapping[str, np.ndarray],
    rel_tol: float,
    abs_floor: float,
) -> list[str]:
    """Entries where |got - want| > max(abs_floor, rel_tol * max(|got|, |want|))."""
    bad = []
    for name, w in want.items():
        g = got[name]
        for idx in np.ndindex(w.shape):
            if np.isnan(w[idx]):
                continue
            diff = abs(g[idx] - w[idx])
            tol = max(abs_floor, rel_tol * max(abs(g[idx]), abs(w[idx])))
            if diff > tol:
                bad.append(f"{name}{list(idx)}: got {g[idx]!r}, fd {w[idx]!r}")
    return bad


def sample_coords(
    params: Mapping[str, np.ndarray], rng: np.random.Generator, per_tensor: int
) -> dict[str, list[tuple[int, ...]]]:
    """A seeded random subset of coordinates, spanning every tensor."""
    coords: dict[str, list[tuple[int, ...]]] = {}
    for name, value in params.items():
        flat = rng.choice(value.size, size=min(per_tensor, value.size), replace=False)
        coords[name] = [np.unravel_index(i, value.shape) for i in np.sort(flat)]
    return coords


def invert_cap(value: float, cap: float) -> float:
    """Raw pre-activation whose capped output equals ``value``.

    Inverse of cap*sigmoid(softplus(z)/cap); only values in (cap/2, cap)
    are representable.
    """
    if not (cap / 2.0 < value < cap):
        raise ValueError(f"{value} outside the representable band ({cap / 2}, {cap})")
    u = cap * np.log(value / (cap - value))
    return float(np.log(np.expm1(u)))


def plugin_truth_model(scenario, variant: str = "fhnn"):
    """A structured model frozen to the scenario's true constant coefficients.

    Coefficient weights are zeroed and the output bias inverted through
    the cap map, so the network emits the exact true constants; using it
    with flow_override = the true flow reproduces the generator.
    """
    from floatdyn.model import CAPS, DynamicsModel

    m = DynamicsModel.initialize(
        variant, seed=0, body=scenario.body, fluid=scenario.fluid, flow_override=scenario.flow
    )
    for name in m.params.names():
        if name.startswith("coeff."):
            m.params[name] = np.zeros_like(m.params[name])
    c = scenario.coeffs
    truths = (c.m_ax, c.m_ay, c.c_q, c.c_l)
    m.params[f"coeff.b{len(m.descriptor.hidden)}"] = np.array(
        [invert_cap(v, cap) for v, cap in zip(truths, CAPS)]
    )
    return m
