import json
import warnings

import numpy as np
import pytest

from floatdyn import autodiff as ad
from oracles import fd_gradient, grad_mismatches

# frozen: mpmath at 30 digits
TANH_2_5 = 0.986614298151430288881276039237


# -- random-graph gradient property -------------------------------------------

UNARY = ["tanh", "sigmoid", "softplus", "exp", "sqrt", "log", "relu", "sin", "cos", "neg", "square"]
BINARY = ["add", "sub", "mul", "div"]


def random_program(rng, n_ops):
    """A list of instructions over positive, well-conditioned values."""
    prog = []
    n_leaves = int(rng.integers(2, 5))
    shapes = [(), (3,), (2, 3)]
    for _ in range(n_leaves):
        prog.append(("leaf", shapes[int(rng.integers(len(shapes)))]))
    for _ in range(n_ops):
        kind = rng.random()
        n = len(prog)
        if kind < 0.45:
            prog.append(("unary", UNARY[int(rng.integers(len(UNARY)))], int(rng.integers(n))))
        elif kind < 0.9:
            prog.append(
                ("binary", BINARY[int(rng.integers(len(BINARY)))], int(rng.integers(n)), int(rng.integers(n)))
            )
        else:
            prog.append(("reduce", int(rng.integers(n))))
    return prog


def run_program(prog, leaf_values, ops):
    """Execute with either Var leaves (tape) or ndarray leaves (oracle)."""
    nodes = []
    li = 0
    for ins in prog:
        if ins[0] == "leaf":
            nodes.append(leaf_values[li])
            li += 1
        elif ins[0] == "unary":
            _, name, src = ins
            x = nodes[src]
            if name == "neg":
                nodes.append(-x)
            elif name == "square":
                nodes.append(x * x)
            elif name in ("sqrt", "log"):
                # keep arguments positive: square then offset
                nodes.append(ops[name](x * x + 0.5))
            elif name == "exp":
                nodes.append(ops[name](x * 0.3))  # bounded argument
            else:
                nodes.append(ops[name](x))
        elif ins[0] == "binary":
            _, name, a, b = ins
            x, y = nodes[a], nodes[b]
            if name == "add":
                out = x + y
            elif name == "sub":
                out = x - y
            elif name == "mul":
                out = x * y
            else:
                out = x / (y * y + 0.7)
            # mismatched shapes: fall back to reducing the second operand
            try:
                np.broadcast_shapes(np.shape(getattr(x, "value", x)), np.shape(getattr(y, "value", y)))
                nodes.append(out)
            except ValueError:
                nodes.append(x + ops["vmean"](y))
        else:
            _, src = ins
            nodes.append(ops["vmean"](nodes[src]))
    total = None
    for node in nodes:
        term = ops["vmean"](node)
        total = term if total is None else total + term
    return total


VAR_OPS = {
    "tanh": ad.tanh, "sigmoid": ad.sigmoid, "softplus": ad.softplus, "exp": ad.exp,
    "sqrt": ad.sqrt, "log": ad.log, "relu": ad.relu, "sin": ad.sin, "cos": ad.cos,
    "vmean": ad.vmean,
}


def test_random_graphs_match_finite_differences():
    rng = np.random.default_rng(7)
    for trial in range(60):
        prog = random_program(rng, n_ops=int(rng.integers(5, 30)))
        leaf_shapes = [ins[1] for ins in prog if ins[0] == "leaf"]
        values = {f"x{i}": rng.uniform(0.3, 1.4, size=s) for i, s in enumerate(leaf_shapes)}

        tape = ad.Tape()
        leaves = {k: tape.leaf(v) for k, v in values.items()}
        root = run_program(prog, [leaves[f"x{i}"] for i in range(len(leaf_shapes))], VAR_OPS)
        assert len(tape) <= 200
        ad.backward(tape, root)
        got = ad.parameter_gradients(tape, leaves)

        def f(vals, prog=prog, n=len(leaf_shapes)):
            out = run_program(prog, [vals[f"x{i}"] for i in range(n)], VAR_OPS)
            return float(out)

        want = fd_gradient(f, values, h=1e-5)
        bad = grad_mismatches(got, want, rel_tol=1e-6, abs_floor=1e-4)
        assert not bad, f"trial {trial}: {bad[:5]}"


def test_gradient_of_sum_is_sum_of_gradients_exactly():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4,))

    tape = ad.Tape()
    v = tape.leaf(x)
    a = ad.vsum(ad.tanh(v) * 2.0)
    b = ad.vsum(v * v)
    ad.backward(tape, a)
    ga = tape.adjoint(v).copy()
    ad.backward(tape, b)
    gb = tape.adjoint(v).copy()
    ad.backward(tape, a + b)
    gsum = tape.adjoint(v)
    assert np.array_equal(gsum, ga + gb)


def test_backward_is_idempotent():
    tape = ad.Tape()
    v = tape.leaf([0.2, -0.4, 1.1])
    root = ad.vsum(ad.sigmoid(v) * ad.tanh(v))
    ad.backward(tape, root)
    first = tape.adjoint(v).copy()
    ad.backward(tape, root)
    second = tape.adjoint(v)
    assert np.array_equal(first, second)


def test_backward_rejects_nonscalar_root():
    tape = ad.Tape()
    v = tape.leaf([1.0, 2.0])
    y = ad.tanh(v)
    with pytest.raises(ad.UsageError):
        ad.backward(tape, y)


def test_unreachable_parameters_get_exact_zero():
    tape = ad.Tape()
    used = tape.leaf(3.0)
    unused = tape.leaf([1.0, 2.0])
    root = used * used
    ad.backward(tape, root)
    grads = ad.parameter_gradients(tape, {"used": used, "unused": unused})
    assert grads["used"] == pytest.approx(6.0)
    assert np.array_equal(grads["unused"], np.zeros(2))


def test_linear_and_tanh_backward_examples():
    tape = ad.Tape()
    w = tape.leaf(0.7)
    root = w * 3.0
    ad.backward(tape, root)
    assert tape.adjoint(w) == pytest.approx(3.0)

    tape = ad.Tape()
    w = tape.leaf(0.0)
    ad.backward(tape, ad.tanh(w))
    assert tape.adjoint(w) == pytest.approx(1.0)


def test_relu_prime_is_relu_step_with_zero_adjoint():
    z = np.array([-1.5, -0.0, 0.0, 1e-300, 0.3, 2.0, -2e-12])

    tape = ad.Tape()
    v = tape.leaf(z)
    step = ad.relu_prime(v)
    assert len(tape) == 1
    assert np.array_equal(step, ad.relu_prime(z))
    assert np.array_equal(step, np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0]))
    assert np.array_equal(ad.relu(z), z * ad.relu_prime(z))

    ad.backward(tape, ad.vsum(ad.relu(v)))
    assert np.array_equal(tape.adjoint(v), step)

    ad.backward(tape, ad.vsum(ad.relu_prime(v) * v))
    assert np.array_equal(tape.adjoint(v), step)


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    a0 = rng.normal(size=(3, 2))
    b0 = rng.normal(size=(2, 4))
    x0 = rng.normal(size=(2,))

    def f(vals):
        return float(np.sum(vals["a"] @ vals["b"]) + np.sum(vals["a"] @ vals["x"]))

    tape = ad.Tape()
    leaves = {"a": tape.leaf(a0), "b": tape.leaf(b0), "x": tape.leaf(x0)}
    root = ad.vsum(ad.matmul(leaves["a"], leaves["b"])) + ad.vsum(
        ad.matmul(leaves["a"], leaves["x"])
    )
    ad.backward(tape, root)
    got = ad.parameter_gradients(tape, leaves)
    want = fd_gradient(f, {"a": a0, "b": b0, "x": x0}, h=1e-6)
    bad = grad_mismatches(got, want, rel_tol=1e-6, abs_floor=1e-7)
    assert not bad, bad


def test_take_col_and_stack_last_roundtrip_gradients():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(6, 3))
    tape = ad.Tape()
    x = tape.leaf(x0)
    cols = [ad.take_col(x, j) for j in range(3)]
    y = ad.stack_last([cols[2], cols[0], 1.5])  # constant column mixed in
    assert y.value.shape == (6, 3)
    root = ad.vsum(y * y)
    ad.backward(tape, root)
    g = tape.adjoint(x)
    expect = np.zeros_like(x0)
    expect[:, 2] = 2.0 * x0[:, 2]
    expect[:, 0] = 2.0 * x0[:, 0]
    assert np.allclose(g, expect, atol=1e-12)


def test_stack_last_numpy_mode_arrays_only():
    a = np.array([1.0, -2.0, 3.5])
    b = np.array([0.25, 0.0, -1.0])
    out = ad.stack_last([a, b])
    assert out.shape == (3, 2)
    assert np.array_equal(out[:, 0], a) and np.array_equal(out[:, 1], b)
    assert np.array_equal(ad.stack_last([np.float64(2.0), np.float64(3.0)]), [2.0, 3.0])


def test_stack_last_numpy_mode_broadcasts_scalar_constants():
    a = np.array([1.0, -2.0, 3.5])
    out = ad.stack_last([a, 0.0, np.array([4, 5, 6])])  # scalar and an int array mixed in
    assert out.dtype == np.float64
    assert np.array_equal(out, [[1.0, 0.0, 4.0], [-2.0, 0.0, 5.0], [3.5, 0.0, 6.0]])
    assert np.array_equal(ad.stack_last([1.5, a]), np.stack([np.full(3, 1.5), a], axis=-1))


# -- forward_mlp ---------------------------------------------------------------


def _mlp_params(widths, fill=0.0, prefix=""):
    store = ad.ParamStore()
    for i in range(len(widths) - 1):
        store.add(f"{prefix}W{i}", np.full((widths[i + 1], widths[i]), fill))
        store.add(f"{prefix}b{i}", np.zeros(widths[i + 1]))
    return store


def test_forward_mlp_zero_weights_returns_bias():
    store = _mlp_params([3, 4, 2])
    store["b1"] = np.array([0.3, -0.7])
    out = ad.forward_mlp(store, np.array([5.0, -2.0, 9.0]), [3, 4, 2], "tanh")
    assert np.allclose(out, [0.3, -0.7], atol=0.0)


def test_forward_mlp_single_layer_tanh_identity_case():
    store = ad.ParamStore({"W0": [[1.0]], "b0": [0.0]})
    # single layer: no activation applied after the last layer, so compose
    out = ad.forward_mlp(store, np.array([0.0]), [1, 1], "tanh")
    assert np.allclose(ad.tanh(out), [0.0], atol=0.0)


def test_forward_mlp_scalar_against_high_precision_tanh():
    store = ad.ParamStore({"W0": [[2.0]], "b0": [0.5]})
    pre = ad.forward_mlp(store, np.array([1.0]), [1, 1], "tanh")
    out = ad.tanh(pre)
    assert out[0] == pytest.approx(TANH_2_5, abs=1e-12)


def test_forward_mlp_batched_matches_vector_mode():
    rng = np.random.default_rng(2)
    store = ad.ParamStore()
    ad.init_mlp_params(store, [2, 8, 3], rng)
    xs = rng.normal(size=(5, 2))
    batched = ad.forward_mlp(store, xs, [2, 8, 3], "tanh")
    rows = np.stack([ad.forward_mlp(store, x, [2, 8, 3], "tanh") for x in xs])
    assert np.allclose(batched, rows, atol=1e-14)


def test_relu_activation_value_is_max_with_zero():
    # as ad.relu: -inf maps to 0 without a warning, and negatives to +0.0
    z = np.array([-np.inf, -1.5, -0.0, 0.0, 2.0, np.inf])
    value, base = ad.activation_value_and_base("relu", z)
    assert np.array_equal(value, [0.0, 0.0, 0.0, 0.0, 2.0, np.inf])
    assert not np.signbit(value).any()
    assert np.array_equal(base, ad.relu_prime(z))

    store = ad.ParamStore({"W0": [[1.0]], "b0": [0.0], "W1": [[1.0]], "b1": [0.0]})
    x = np.array([[-np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.forward_mlp(store, x, (1, 1, 1), "relu")
        tape = ad.Tape()
        taped = ad.forward_mlp(store.as_leaves(tape), x, (1, 1, 1), "relu")
    assert out.tolist() == [[0.0]]
    assert taped.value.tobytes() == out.tobytes()


def test_forward_mlp_shape_mismatch_is_configuration_error():
    store = _mlp_params([3, 4, 2])
    with pytest.raises(ad.ConfigurationError):
        ad.forward_mlp(store, np.zeros(5), [3, 4, 2], "tanh")
    with pytest.raises(ad.ConfigurationError):
        ad.forward_mlp(store, np.zeros(3), [3, 5, 2], "tanh")
    with pytest.raises(ad.ConfigurationError):
        ad.forward_mlp(store, np.zeros(3), [3, 4, 2], "gelu")


def test_mlp_parameter_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    store = ad.ParamStore()
    ad.init_mlp_params(store, [2, 6, 1], rng)
    x = rng.normal(size=(4, 2))

    def loss(vals):
        out = ad.forward_mlp(vals, x, [2, 6, 1], "tanh")
        return float(np.mean(out**2))

    tape = ad.Tape()
    leaves = store.as_leaves(tape)
    out = ad.forward_mlp(leaves, x, [2, 6, 1], "tanh")
    root = ad.vmean(out * out)
    ad.backward(tape, root)
    got = ad.parameter_gradients(tape, leaves)
    want = fd_gradient(loss, dict(store.items()), h=1e-5)
    bad = grad_mismatches(got, want, rel_tol=1e-6, abs_floor=1e-4)
    assert not bad, bad[:5]


# -- Adam ------------------------------------------------------------------


def test_adam_zero_gradient_leaves_parameters_unchanged():
    store = ad.ParamStore({"w": [1.0, -2.0]})
    state = ad.AdamState.for_params(store, lr=0.1)
    ad.adam_step(store, {"w": np.zeros(2)}, state)
    assert np.array_equal(store["w"], [1.0, -2.0])
    assert state.t == 1


def test_adam_first_step_magnitude():
    store = ad.ParamStore({"w": [0.0]})
    state = ad.AdamState.for_params(store, lr=0.1)
    ad.adam_step(store, {"w": np.array([1.0])}, state)
    # bias correction makes the first step ~ -lr for a unit gradient
    assert store["w"][0] == pytest.approx(-0.1, abs=1e-7)


def test_adam_zero_learning_rate_is_noop_on_params():
    store = ad.ParamStore({"w": [3.0]})
    state = ad.AdamState.for_params(store, lr=0.0)
    ad.adam_step(store, {"w": np.array([2.5])}, state)
    assert store["w"][0] == 3.0
    assert state.m["w"][0] != 0.0  # moments still advance


def test_adam_nan_gradient_aborts_without_mutation():
    store = ad.ParamStore({"w": [3.0], "u": [1.0]})
    state = ad.AdamState.for_params(store, lr=0.1)
    with pytest.raises(ad.TrainingDivergedError):
        ad.adam_step(store, {"w": np.array([np.nan]), "u": np.array([1.0])}, state)
    assert store["w"][0] == 3.0
    assert store["u"][0] == 1.0
    assert state.t == 0


# -- checkpoints -------------------------------------------------------------


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    store = ad.ParamStore()
    ad.init_mlp_params(store, [2, 64, 64, 4], rng, prefix="coeff.")
    # include awkward values
    store.add("extra", np.array([1e-300, 1.0 + 2**-52, -0.0, 3.141592653589793]))
    meta = {"variant": "fhnn", "seed": 13, "activation": "tanh"}
    path = tmp_path / "ckpt.json"
    ad.save_checkpoint(path, store, meta)
    loaded, meta2 = ad.load_checkpoint(path)
    assert meta2 == meta
    assert loaded.names() == sorted(store.names())
    for name, value in store.items():
        assert loaded[name].tobytes() == value.tobytes(), name


def test_checkpoint_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ad.ConfigurationError):
        ad.load_checkpoint(path)


def test_duplicate_parameter_name_rejected():
    store = ad.ParamStore({"w": [1.0]})
    with pytest.raises(ad.ConfigurationError):
        store.add("w", [2.0])
