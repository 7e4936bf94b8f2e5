import json
import re
import warnings

import numpy as np
import pytest

from floatdyn import autodiff as ad
from oracles import fd_gradient, grad_mismatches

# frozen: mpmath at 30 digits
TANH_2_5 = 0.986614298151430288881276039237


# -- random-graph gradient property -------------------------------------------

UNARY = ["sigmoid", "softplus", "exp", "sqrt", "neg", "square"]
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
            elif name == "sqrt":
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


VAR_OPS = {"sigmoid": ad.sigmoid, "softplus": ad.softplus, "exp": ad.exp, "sqrt": ad.sqrt, "vmean": ad.vmean}


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
    a = ad.vsum(ad.softplus(v) * 2.0)
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
    root = ad.vsum(ad.sigmoid(v) * ad.softplus(v))
    ad.backward(tape, root)
    first = tape.adjoint(v).copy()
    ad.backward(tape, root)
    second = tape.adjoint(v)
    assert np.array_equal(first, second)


def test_backward_rejects_nonscalar_root():
    tape = ad.Tape()
    v = tape.leaf([1.0, 2.0])
    y = ad.sigmoid(v)
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

    # a 1-1-1 tanh network with unit weights and zero biases is tanh itself
    tape = ad.Tape()
    w = tape.leaf([0.0])
    ad.backward(tape, ad.vsum(ad.forward_mlp([np.ones((1, 1))] * 2, [np.zeros(1)] * 2, w, "tanh")))
    assert tape.adjoint(w) == pytest.approx(1.0)


def test_relu_prime_is_relu_step_with_zero_adjoint():
    z = np.array([-1.5, -0.0, 0.0, 1e-300, 0.3, 2.0, -2e-12])
    step = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0])
    value, base = ad.activation_value_and_base("relu", z)
    assert np.array_equal(base, step)
    assert np.array_equal(value, z * step)

    # identity weights and zero biases: the network is relu applied elementwise
    tape = ad.Tape()
    v = tape.leaf(z)
    ad.backward(tape, ad.vsum(ad.forward_mlp([np.eye(7)] * 2, [np.zeros(7)] * 2, v, "relu")))
    assert np.array_equal(tape.adjoint(v), step)


def test_take_col_and_stack_last_roundtrip_gradients():
    # both ops act on the last axis, whatever the rank
    rng = np.random.default_rng(5)
    for shape in [(6, 3), (3, 5, 3)]:
        x0 = rng.normal(size=shape)
        tape = ad.Tape()
        x = tape.leaf(x0)
        cols = [ad.take_col(x, j) for j in range(3)]
        assert all(np.array_equal(c.value, x0[..., j]) for j, c in enumerate(cols))
        y = ad.stack_last([cols[2], cols[0], 1.5])  # constant column mixed in
        assert y.value.shape == shape
        root = ad.vsum(y * y)
        ad.backward(tape, root)
        g = tape.adjoint(x)
        expect = np.zeros_like(x0)
        expect[..., 2] = 2.0 * x0[..., 2]
        expect[..., 0] = 2.0 * x0[..., 0]
        assert np.allclose(g, expect, atol=1e-12)


def test_stack_last_numpy_mode_arrays_only():
    a = np.array([1.0, -2.0, 3.5])
    b = np.array([0.25, 0.0, -1.0])
    out = ad.stack_last([a, b])
    assert out.shape == (3, 2)
    assert np.array_equal(out[:, 0], a) and np.array_equal(out[:, 1], b)
    assert np.array_equal(ad.stack_last([np.float64(2.0), np.float64(3.0)]), [2.0, 3.0])
    # both ops act on the last axis, whatever the rank
    c = np.random.default_rng(6).normal(size=(3, 5, 4))
    cols = [ad.take_col(c, j) for j in range(4)]
    assert all(np.array_equal(col, c[..., j]) for j, col in enumerate(cols))
    assert np.array_equal(ad.stack_last(cols[::-1]), c[..., ::-1])


def test_stack_last_numpy_mode_broadcasts_scalar_constants():
    a = np.array([1.0, -2.0, 3.5])
    out = ad.stack_last([a, 0.0, np.array([4, 5, 6])])  # scalar and an int array mixed in
    assert out.dtype == np.float64
    assert np.array_equal(out, [[1.0, 0.0, 4.0], [-2.0, 0.0, 5.0], [3.5, 0.0, 6.0]])
    assert np.array_equal(ad.stack_last([1.5, a]), np.stack([np.full(3, 1.5), a], axis=-1))


# -- forward_mlp ---------------------------------------------------------------


def _glorot(widths, rng) -> dict:
    """Tensors W0, b0, W1, ... of a dense network: Glorot-uniform weights, zero biases."""
    params = {}
    for i, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
        bound = np.sqrt(6.0 / (n_in + n_out))
        params[f"W{i}"] = rng.uniform(-bound, bound, size=(n_out, n_in))
        params[f"b{i}"] = np.zeros(n_out)
    return params


def _layers(params, n_layers):
    """The weight and the bias lists of the tensors W0, b0, W1, ..."""
    return [params[f"W{i}"] for i in range(n_layers)], [params[f"b{i}"] for i in range(n_layers)]


def test_forward_mlp_zero_weights_returns_bias():
    weights = [np.zeros((4, 3)), np.zeros((2, 4))]
    biases = [np.zeros(4), np.array([0.3, -0.7])]
    out = ad.forward_mlp(weights, biases, np.array([5.0, -2.0, 9.0]), "tanh")
    assert np.allclose(out, [0.3, -0.7], atol=0.0)


def test_forward_mlp_single_layer_tanh_identity_case():
    # single layer: no activation applied after the last layer, so compose
    out = ad.forward_mlp([np.array([[1.0]])], [np.array([0.0])], np.array([0.0]), "tanh")
    assert np.allclose(ad.activation_value_and_base("tanh", out)[0], [0.0], atol=0.0)


def test_forward_mlp_scalar_against_high_precision_tanh():
    pre = ad.forward_mlp([np.array([[2.0]])], [np.array([0.5])], np.array([1.0]), "tanh")
    out, _ = ad.activation_value_and_base("tanh", pre)
    assert out[0] == pytest.approx(TANH_2_5, abs=1e-12)


def test_forward_mlp_batched_matches_vector_mode():
    rng = np.random.default_rng(2)
    weights, biases = _layers(_glorot([2, 8, 3], rng), 2)
    xs = rng.normal(size=(5, 2))
    batched = ad.forward_mlp(weights, biases, xs, "tanh")
    rows = np.stack([ad.forward_mlp(weights, biases, x, "tanh") for x in xs])
    assert np.allclose(batched, rows, atol=1e-14)


# -- mlp_jet: the dense-network jet at d = 3 inputs -----------------------------

JET_WIDTHS = (3, 6, 5, 2)


def _jet_params(rng) -> dict:
    params = {}
    for i, (n_in, n_out) in enumerate(zip(JET_WIDTHS, JET_WIDTHS[1:])):
        params[f"W{i}"] = rng.normal(size=(n_out, n_in))
        params[f"b{i}"] = rng.normal(size=n_out)
    return params


def _jet(params, a, activation, order, saves=None):
    return ad.mlp_jet(*_layers(params, len(JET_WIDTHS) - 1), a, activation, order, saves)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("activation", ["tanh"])
def test_mlp_jet_channels_match_central_differences_at_three_inputs(activation, order):
    # a channel of order k is the central difference of one of order k - 1:
    # d/da_k of the value, and for the pair (i, j) d/da_i of the d/da_j channel
    rng = np.random.default_rng(23)
    params = _jet_params(rng)
    a = rng.uniform(-1.0, 1.0, size=(4, 3))
    h = 1e-5
    jet = _jet(params, a, activation, order)
    assert len(jet) == (4 if order == 1 else 10)
    diffs = []
    for k in range(3):
        up = _jet(params, a + h * np.eye(3)[k], activation, order - 1)
        down = _jet(params, a - h * np.eye(3)[k], activation, order - 1)
        diffs.append([(u - d) / (2.0 * h) for u, d in zip(up, down)])
    if order == 1:
        got, want = jet[1:], [diffs[k][0] for k in range(3)]
    else:
        got, want = jet[4:], [diffs[i][1 + j] for i in range(3) for j in range(i, 3)]
    for g, w in zip(got, want, strict=True):
        assert np.max(np.abs(g - w)) < 1e-7


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("activation", ["tanh"])
def test_mlp_jet_vjp_matches_finite_differences_at_three_inputs(activation, order):
    rng = np.random.default_rng(29)
    params = {**_jet_params(rng), "a": rng.uniform(-1.0, 1.0, size=(4, 3))}
    zbar = list(rng.normal(size=(4 if order == 1 else 10, 4, 2)))

    def f(vals):
        jet = _jet(vals, vals["a"], activation, order)
        return float(sum(np.sum(zb * c) for zb, c in zip(zbar, jet, strict=True)))

    saves = []
    _jet(params, params["a"], activation, order, saves)
    weights = [params[f"W{i}"] for i in range(3)]
    w_grads, b_grads, abar = ad.mlp_jet_vjp(zbar, weights, params["a"], saves, activation, order)
    got = {"a": abar}
    got.update({f"W{i}": g for i, g in enumerate(w_grads)})
    got.update({f"b{i}": g for i, g in enumerate(b_grads)})
    want = fd_gradient(f, params)
    bad = grad_mismatches(got, want, rel_tol=1e-6, abs_floor=1e-8)
    assert not bad, bad[:5]


def test_relu_activation_value_is_max_with_zero():
    # -inf maps to 0 without a warning, and negatives to +0.0
    z = np.array([-np.inf, -1.5, -0.0, 0.0, 2.0, np.inf])
    value, base = ad.activation_value_and_base("relu", z)
    assert np.array_equal(value, [0.0, 0.0, 0.0, 0.0, 2.0, np.inf])
    assert not np.signbit(value).any()
    assert np.array_equal(base, [0.0, 0.0, 0.0, 0.0, 1.0, 1.0])

    weights, biases = [np.ones((1, 1))] * 2, [np.zeros(1)] * 2
    x = np.array([[-np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.forward_mlp(weights, biases, x, "relu")
        tape = ad.Tape()
        taped = ad.forward_mlp([tape.leaf(w) for w in weights], [tape.leaf(b) for b in biases], x, "relu")
    assert out.tolist() == [[0.0]]
    assert taped.value.tobytes() == out.tobytes()


def test_unknown_activation_is_configuration_error():
    with pytest.raises(ad.ConfigurationError, match="unknown activation: 'gelu'"):
        ad.activation_value_and_base("gelu", np.zeros(3))


def test_mlp_parameter_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    params = _glorot([2, 6, 1], rng)
    x = rng.normal(size=(4, 2))

    def loss(vals):
        out = ad.forward_mlp(*_layers(vals, 2), x, "tanh")
        return float(np.mean(out**2))

    tape = ad.Tape()
    leaves = {name: tape.leaf(value) for name, value in params.items()}
    out = ad.forward_mlp(*_layers(leaves, 2), x, "tanh")
    root = ad.vmean(out * out)
    ad.backward(tape, root)
    got = ad.parameter_gradients(tape, leaves)
    want = fd_gradient(loss, params, h=1e-5)
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


def test_param_store_holds_float64_copies():
    given = np.array([0.5, -1.5])
    store = ad.ParamStore({"w": [1, 2], "b": given})
    assert store["w"].dtype == np.float64 and store["w"].tolist() == [1.0, 2.0]
    assert not np.shares_memory(store["b"], given)
    # best_params is a copy that later Adam steps must not reach
    copy = store.copy()
    assert isinstance(copy, ad.ParamStore) and copy.names() == ["w", "b"]
    assert all(np.array_equal(copy[n], store[n]) and not np.shares_memory(copy[n], store[n]) for n in store)


# -- checkpoints -------------------------------------------------------------


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    store = ad.ParamStore({f"coeff.{name}": v for name, v in _glorot([2, 64, 64, 4], rng).items()})
    # include awkward values
    store["extra"] = np.array([1e-300, 1.0 + 2**-52, -0.0, 3.141592653589793])
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
    header = {"format": ad.CHECKPOINT_FORMAT, "metadata": {}}
    texts = [
        json.dumps({"hello": 1}),
        json.dumps([1, 2]),
        '{"format": "floatdyn-',  # not JSON
        json.dumps({**header, "tensors": [1]}),
        json.dumps({**header, "tensors": {"w": 1}}),
    ]
    for text in texts:
        path.write_text(text)
        with pytest.raises(ad.ConfigurationError, match=re.escape(str(path))):
            ad.load_checkpoint(path)


@pytest.mark.parametrize("key", ["tensors", "metadata", "data", "shape"])
def test_checkpoint_missing_key_is_configuration_error(tmp_path, key):
    path = tmp_path / "ckpt.json"
    ad.save_checkpoint(path, ad.ParamStore({"w": [1.0, 2.0]}), {"seed": 1})
    payload = json.loads(path.read_text())
    if key in ("data", "shape"):
        del payload["tensors"]["w"][key]
    else:
        del payload[key]
    path.write_text(json.dumps(payload))
    with pytest.raises(ad.ConfigurationError, match=repr(key)):
        ad.load_checkpoint(path)


def test_checkpoint_tensor_size_mismatch_names_the_tensor(tmp_path):
    path = tmp_path / "ckpt.json"
    ad.save_checkpoint(path, ad.ParamStore({"b": [0.5], "w": [1.0, 2.0]}), {"seed": 1})
    saved = json.loads(path.read_text())
    bad_entries = [
        ("shape", [3], "'w' has 2 values for shape \\[3\\]"),
        ("data", [[1.0], [2.0, 3.0]], "'w' data is not a list of numbers"),  # ragged
        ("data", "ab", "'w' data is not a list of numbers"),
        ("shape", [2.5], "'w' shape \\[2.5\\] is not a list of sizes"),
        ("shape", "ab", "'w' shape 'ab' is not a list of sizes"),
    ]
    for key, value, message in bad_entries:
        payload = json.loads(json.dumps(saved))
        payload["tensors"]["w"][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ad.ConfigurationError, match=message):
            ad.load_checkpoint(path)


def test_checkpoint_rejects_non_finite_values(tmp_path):
    path = tmp_path / "ckpt.json"
    ad.save_checkpoint(path, ad.ParamStore({"b": [0.5], "w": [1.0, np.nan]}), {"seed": 1})
    with pytest.raises(ad.ConfigurationError, match="'w' holds non-finite"):
        ad.load_checkpoint(path)
