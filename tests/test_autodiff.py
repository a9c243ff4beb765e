"""Engine tests: primitive contracts, tape replay, and finite-difference audits."""

import math

import numpy as np
import pytest

from bgrto import autodiff as ad
from bgrto import rng
from bgrto.autodiff import (
    DomainError,
    FiniteDiffReport,
    GradientTape,
    NamedParams,
    ShapeError,
    StateError,
    UsageError,
)


def scalar_tape(value):
    tape = GradientTape()
    return tape, tape.leaf("x", np.asarray(value, dtype=np.float64))


def test_sigmoid_at_zero():
    tape = GradientTape()
    out = ad.sigmoid(tape.constant(np.zeros(1)))
    assert out.data[0] == 0.5


def test_log_softmax_uniform():
    tape = GradientTape()
    out = ad.log_softmax(tape.constant(np.zeros(3)))
    assert np.allclose(out.data, -math.log(3.0), atol=1e-15)


def test_matmul_identity():
    tape = GradientTape()
    eye = tape.constant(np.eye(2))
    rhs = tape.constant(np.arange(6.0).reshape(2, 3))
    out = ad.matmul(eye, rhs)
    assert np.array_equal(out.data, rhs.data)


def test_square_gradient():
    tape, x = scalar_tape([3.0])
    ad.sum_reduce(ad.mul(x, x))
    grads = ad.backward(tape)
    assert grads["x"][0] == pytest.approx(6.0, abs=1e-14)


def test_sum_sigmoid_gradient():
    tape, x = scalar_tape([0.0])
    ad.sum_reduce(ad.sigmoid(x))
    grads = ad.backward(tape)
    assert grads["x"][0] == pytest.approx(0.25, abs=1e-15)


def test_stop_gradient_product_rule():
    # d/dx [ sg(x) * x ] = sg(x) = x_value
    tape, x = scalar_tape([2.0])
    ad.sum_reduce(ad.mul(ad.stop_gradient(x), x))
    assert tape.result.item() == pytest.approx(4.0)
    grads = ad.backward(tape)
    assert grads["x"][0] == pytest.approx(2.0, abs=1e-15)


def test_stop_gradient_blocks_everything():
    tape, x = scalar_tape([1.5, -0.5])
    ad.sum_reduce(ad.exp(ad.stop_gradient(ad.mul(x, x))))
    grads = ad.backward(tape)
    assert np.array_equal(grads["x"], np.zeros(2))


def test_stop_gradient_identity_on_values():
    tape = GradientTape()
    t = tape.constant(np.array([1.0, -2.0, 3.5]))
    out = ad.stop_gradient(t)
    assert np.array_equal(out.data, t.data)


def test_unused_leaf_gets_zero_gradient():
    tape = GradientTape()
    x = tape.leaf("x", np.ones(3))
    tape.leaf("unused", np.ones((2, 2)))
    ad.sum_reduce(ad.mul(x, x))
    grads = ad.backward(tape)
    assert np.array_equal(grads["unused"], np.zeros((2, 2)))


def test_backward_twice_is_identical():
    tape, x = scalar_tape([0.3, 0.7])
    ad.sum_reduce(ad.sigmoid(ad.mul(x, x)))
    first = ad.backward(tape)
    second = ad.backward(tape)
    assert np.array_equal(first["x"], second["x"])


def test_forward_replay_is_bit_identical():
    gen = rng.stream(0, "replay")
    tape = GradientTape()
    x = tape.leaf("x", gen.normal(size=(4, 3)))
    w = tape.leaf("w", gen.normal(size=(3, 2)))
    ad.sum_reduce(ad.relu(ad.matmul(x, w)))
    first = tape.result.item()
    again = ad.forward(tape).item()
    assert first == again


def test_forward_with_new_inputs():
    tape, x = scalar_tape([1.0])
    ad.sum_reduce(ad.mul(x, x))
    out = ad.forward(tape, NamedParams({"x": np.array([5.0])}))
    assert out.item() == 25.0


def test_dimension_mismatch_names_primitive():
    tape = GradientTape()
    a = tape.constant(np.zeros(2))
    b = tape.constant(np.zeros(3))
    with pytest.raises(ShapeError, match="add"):
        ad.add(a, b)
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(tape.constant(np.zeros((2, 2))), tape.constant(np.zeros((3, 2))))


def test_exp_overflow_domain_error():
    tape = GradientTape()
    with pytest.raises(DomainError, match="exp"):
        ad.exp(tape.constant(np.array([800.0])))


def test_backward_before_any_op_is_state_error():
    tape = GradientTape()
    tape.leaf("x", np.ones(2))
    with pytest.raises(StateError):
        ad.backward(tape)


def test_add_suffix_operand_only():
    tape = GradientTape()
    out = ad.add(tape.constant(np.zeros((4, 3))), tape.constant(np.arange(3.0)))
    assert out.dims == (4, 3)
    for big, small in [((4, 3), (1, 3)), ((4, 3), (4,)), ((3,), (4, 3))]:
        with pytest.raises(ShapeError, match="add"):
            ad.add(tape.constant(np.zeros(big)), tape.constant(np.zeros(small)))


def test_add_suffix_gradient_sums_leading_axes():
    tape = GradientTape()
    x = tape.leaf("x", np.array([1.0, 2.0]))
    ad.sum_reduce(ad.add(tape.constant(np.zeros((5, 2))), x))
    grads = ad.backward(tape)
    assert np.array_equal(grads["x"], np.full(2, 5.0))


@pytest.mark.parametrize("dims,b_dims", [((7, 4), (7, 4)), ((7, 4), (4,)), ((3, 7, 4), (7, 4)),
                                         ((2, 3, 7, 4), (4,))])
def test_add_suffix_equals_broadcast_then_add(dims, b_dims):
    # bit-equal to expanding the operand first: forward values and operand gradient
    gen = rng.stream(46, "add-suffix", len(dims), len(b_dims))
    a_vals, b_vals, seed = gen.normal(size=dims), gen.normal(size=b_dims), gen.normal(size=dims)
    tape = GradientTape()
    ad.add(tape.leaf("a", a_vals), tape.leaf("b", b_vals))
    grads = ad.backward(tape, seed)
    assert np.array_equal(tape.result.data, a_vals + np.broadcast_to(b_vals, dims))
    lead = tuple(range(len(dims) - len(b_dims)))
    assert np.array_equal(grads["b"], seed.sum(axis=lead) if lead else seed)
    assert np.array_equal(grads["a"], seed)


def test_gather_rows_and_entries():
    tape = GradientTape()
    table = tape.leaf("t", np.arange(6.0).reshape(3, 2))
    rows = ad.gather(table, [2, 0])
    assert np.array_equal(rows.data, np.array([[4.0, 5.0], [0.0, 1.0]]))
    vec = tape.leaf("v", np.array([10.0, 20.0, 30.0]))
    picked = ad.gather(vec, [1, 1])
    ad.sum_reduce(ad.add(ad.sum_reduce(rows), ad.sum_reduce(picked)))
    grads = ad.backward(tape)
    assert np.array_equal(grads["v"], np.array([0.0, 2.0, 0.0]))  # repeated index accumulates


def test_gather_1d_backward_equals_add_at_bitwise():
    gen = rng.stream(0, "gather-1d")
    idx = gen.integers(0, 7, size=300)  # every entry repeats
    tape = GradientTape()
    vec = tape.leaf("v", gen.normal(size=7))
    picked = ad.gather(vec, idx)
    seed = gen.normal(size=300) * 10.0 ** gen.integers(-8, 8, size=300)
    grads = ad.backward(tape, seed)
    expected = np.zeros(7)
    np.add.at(expected, idx, seed)
    assert picked.dims == (300,)
    assert grads["v"].tobytes() == expected.tobytes()


def test_tensor_of_a_dropped_tape_is_refused():
    x = GradientTape().constant(np.ones(3))  # nothing holds the tape
    with pytest.raises(UsageError, match="freed"):
        ad.relu(x)


def test_clamp_gradient_zero_outside():
    tape = GradientTape()
    x = tape.leaf("x", np.array([-2.0, 0.5, 2.0]))
    ad.sum_reduce(ad.clamp(x, 0.0, 1.0))
    grads = ad.backward(tape)
    assert np.array_equal(grads["x"], np.array([0.0, 1.0, 0.0]))


def test_maximum_ties_route_to_first():
    tape = GradientTape()
    a = tape.leaf("a", np.array([1.0]))
    b = tape.leaf("b", np.array([1.0]))
    ad.sum_reduce(ad.maximum(a, b))
    grads = ad.backward(tape)
    assert grads["a"][0] == 1.0 and grads["b"][0] == 0.0


def test_quadratic_bowl_finite_diff():
    tape = GradientTape()
    x = tape.leaf("x", np.array([0.7, -1.3, 2.1]))
    ad.sum_reduce(ad.mul(x, x))
    report = ad.finite_diff_check(tape, NamedParams({"x": x.data}), step=1e-5, tolerance=1e-9)
    assert report.passed
    assert report.max_rel_err < 1e-9


@pytest.mark.parametrize(
    "build",
    [
        lambda t, x: ad.sum_reduce(ad.exp(ad.mul(x, 0.3))),
        lambda t, x: ad.sum_reduce(ad.sigmoid(x)),
        lambda t, x: ad.sum_reduce(ad.relu(ad.sub(x, 0.1))),
        lambda t, x: ad.sum_reduce(ad.log_softmax(x)),
        lambda t, x: ad.sum_reduce(ad.div(x, ad.add(ad.mul(x, x), 2.0))),
        lambda t, x: ad.sum_reduce(ad.maximum(x, ad.mul(x, -1.0))),
        lambda t, x: ad.sum_reduce(ad.clamp(x, -0.5, 0.5)),
        lambda t, x: ad.sum_reduce(ad.gather(x, [3, 1, 1])),
        lambda t, x: ad.sum_reduce(ad.mul(ad.add(t.constant(np.ones((3, 5))), x),
                                          ad.add(t.constant(np.ones((3, 5))), x))),
        lambda t, x: ad.sum_reduce(ad.reshape(ad.mul(x, x), (5, 1))),
        # suffix add where both operands carry the leaf, and a two-axis lead
        lambda t, x: ad.sum_reduce(ad.sigmoid(ad.add(ad.reshape(ad.gather(x, [4, 2, 0] * 5),
                                                                (3, 5)), x))),
        lambda t, x: ad.sum_reduce(ad.sigmoid(ad.add(t.constant(np.ones((2, 4, 5))), x))),
    ],
)
def test_primitive_finite_diff(build):
    gen = rng.stream(42, "fd-prim")
    for trial in range(3):
        tape = GradientTape()
        x = tape.leaf("x", gen.normal(size=5) * 0.8)
        build(tape, x)
        report = ad.finite_diff_check(tape, NamedParams({"x": x.data}), step=1e-5, tolerance=1e-5)
        assert report.passed, f"trial {trial}: {report}"


def test_bce_with_logits_matches_composition():
    gen = rng.stream(44, "bce")
    x = gen.normal(size=(4, 4)) * 5
    t = (gen.random((4, 4)) > 0.5).astype(float)
    tape = GradientTape()
    fused = ad.bce_with_logits(tape.leaf("x", x), t)
    # reference composition: mean(t * softplus(-x) + (1 - t) * softplus(x))
    ref = np.mean(t * np.log1p(np.exp(-np.abs(x))) + np.maximum(-x, 0) * t
                  + (1 - t) * (np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0)))
    assert fused.item() == pytest.approx(ref, abs=1e-12)
    report = ad.finite_diff_check(tape, NamedParams({"x": x}), step=1e-5, tolerance=1e-5)
    assert report.passed, str(report)


def test_bce_with_logits_saturated_stays_finite():
    tape = GradientTape()
    t = np.array([[1.0, 0.0]])
    out = ad.bce_with_logits(tape.leaf("x", np.array([[700.0, -700.0]])), t)
    assert out.item() == pytest.approx(0.0, abs=1e-8)


def test_matmul_finite_diff():
    gen = rng.stream(43, "fd-matmul")
    tape = GradientTape()
    a = tape.leaf("a", gen.normal(size=(3, 4)))
    b = tape.leaf("b", gen.normal(size=(4, 2)))
    ad.sum_reduce(ad.sigmoid(ad.matmul(a, b)))
    params = NamedParams({"a": a.data, "b": b.data})
    report = ad.finite_diff_check(tape, params, step=1e-5, tolerance=1e-5)
    assert report.passed, str(report)


@pytest.mark.parametrize("b_dims", [(4, 2), (3, 4, 2)], ids=["shared", "per-row"])
def test_rowwise_matmul_finite_diff(b_dims):
    gen = rng.stream(44, "fd-rowwise-matmul")
    tape = GradientTape()
    a = tape.leaf("a", gen.normal(size=(3, 4)))
    b = tape.leaf("b", gen.normal(size=b_dims))
    ad.sum_reduce(ad.sigmoid(ad.rowwise_matmul(a, b)))
    params = NamedParams({"a": a.data, "b": b.data})
    report = ad.finite_diff_check(tape, params, step=1e-5, tolerance=1e-5)
    assert report.passed, str(report)


@pytest.mark.parametrize("b_dims", [(64, 9), (5, 64, 9)], ids=["shared", "per-row"])
def test_rowwise_matmul_rows_equal_one_row_matmul(b_dims):
    gen = rng.stream(45, "rowwise-matmul-rows")
    tape = GradientTape()
    a = tape.constant(gen.normal(size=(5, 64)))
    b = tape.constant(gen.normal(size=b_dims))
    out = ad.rowwise_matmul(a, b)
    for i in range(5):
        b_i = b.data if len(b_dims) == 2 else b.data[i]
        one = ad.matmul(tape.constant(a.data[i:i + 1]), tape.constant(b_i))
        assert np.array_equal(out.data[i:i + 1], one.data)


def test_rowwise_matmul_shape_errors():
    tape = GradientTape()
    a = tape.constant(np.zeros((3, 4)))
    with pytest.raises(ShapeError, match="rowwise_matmul"):
        ad.rowwise_matmul(a, tape.constant(np.zeros((3, 2))))
    with pytest.raises(ShapeError, match="rowwise_matmul"):
        ad.rowwise_matmul(a, tape.constant(np.zeros((2, 4, 2))))
    with pytest.raises(ShapeError, match="rowwise_matmul"):
        ad.rowwise_matmul(tape.constant(np.zeros(4)), tape.constant(np.zeros((4, 2))))


def test_finite_diff_requires_scalar():
    tape = GradientTape()
    x = tape.leaf("x", np.ones(2))
    ad.mul(x, x)
    with pytest.raises(UsageError):
        ad.finite_diff_check(tape, NamedParams({"x": x.data}))


def test_finite_diff_step_range():
    tape, x = scalar_tape([1.0])
    ad.sum_reduce(ad.mul(x, x))
    with pytest.raises(UsageError):
        ad.finite_diff_check(tape, NamedParams({"x": x.data}), step=0.5)


def test_report_is_printable():
    tape, x = scalar_tape([1.0])
    ad.sum_reduce(ad.mul(x, x))
    report = ad.finite_diff_check(tape, NamedParams({"x": x.data}))
    assert isinstance(report, FiniteDiffReport)
    assert "finite-diff" in str(report)


def test_named_params_sorted_iteration():
    params = NamedParams({"b": np.ones(1), "a": np.zeros(1)})
    assert params.names() == ["a", "b"]
    assert [name for name, _ in params.items()] == ["a", "b"]


def test_named_params_equality_and_copy():
    params = NamedParams({"w": np.arange(4.0)})
    clone = params.copy()
    assert params == clone
    clone["w"][0] = 99.0
    assert params != clone
