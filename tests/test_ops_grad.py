"""Primitive ops: finite-difference gradients, tape semantics, error paths."""

import numpy as np
import pytest

from shapegan import autodiff as ad
from shapegan.autodiff import Tensor, backward, no_grad, variable
from shapegan.errors import ConfigurationError, NumericError, UsageError
from shapegan.gradcheck import TOL_PRIMITIVE, check_scalar_function, primitive_checks
from shapegan.networks import _RESIZE_TAPS


def test_every_primitive_matches_finite_differences():
    results = primitive_checks()
    failed = [r for r in results if not r.passed]
    assert not failed, "\n".join(str(r) for r in failed)
    # the suite actually covers the op set
    names = {r.name for r in results} | {r.name.split()[0] for r in results}
    for op in ("add", "mul", "div", "matmul", "matmul NT", "matmul TN", "sigmoid",
               "leaky_relu", "sum", "mean", "l2_norm_per_row", "kernel_taps",
               "concat_channels", "channel_slice"):
        assert op in names


def test_broadcast_gradient_reduces_correctly():
    a = variable(np.ones((3, 4)))
    b = variable(np.arange(4.0))
    out = ad.sum(ad.mul(a, b))
    ga, gb = backward(out, [a, b])
    np.testing.assert_array_equal(ga.data, np.tile(np.arange(4.0), (3, 1)))
    np.testing.assert_array_equal(gb.data, np.full(4, 3.0))


def test_reused_tensor_accumulates_gradient():
    x = variable(np.array(3.0))
    out = ad.add(ad.mul(x, x), x)  # x^2 + x -> 2x + 1
    (g,) = backward(out, [x])
    assert g.data == pytest.approx(7.0, abs=1e-12)


def test_diamond_graph_gradient():
    # y = (x+1)*(x+2): dy/dx = 2x+3
    x = variable(np.array(1.5))
    y = ad.mul(ad.add(x, 1.0), ad.add(x, 2.0))
    (g,) = backward(y, [x])
    assert g.data == pytest.approx(2 * 1.5 + 3)


def test_no_grad_disables_recording():
    x = variable(np.ones(3))
    with no_grad():
        y = ad.square(x)
    assert not y.requires_grad
    # the output is off-tape, so x is simply unreachable: zero gradient
    (g,) = backward(ad.sum(y), [x])
    np.testing.assert_array_equal(g.data, np.zeros(3))


def test_backward_requires_scalar_output():
    x = variable(np.ones(3))
    with pytest.raises(UsageError):
        backward(ad.square(x), [x])


def test_backward_wrt_constant_is_error():
    c = ad.as_tensor(np.ones(3))
    x = variable(np.ones(3))
    with pytest.raises(UsageError):
        backward(ad.sum(ad.mul(x, x)), [c])


def test_unreached_leaf_gets_zero_gradient():
    x = variable(np.ones(3))
    y = variable(np.ones(3))
    (gy,) = backward(ad.sum(ad.square(x)), [y])
    np.testing.assert_array_equal(gy.data, np.zeros(3))


def test_detach_blocks_gradient():
    x = variable(np.full(3, 2.0))
    out = ad.sum(ad.mul(x.detach(), x))  # treat first factor as constant
    (g,) = backward(out, [x])
    np.testing.assert_allclose(g.data, np.full(3, 2.0))


def test_division_by_zero_raises():
    with pytest.raises(NumericError):
        ad.div(ad.as_tensor(1.0), ad.as_tensor(0.0))


def test_log_of_nonpositive_raises():
    with pytest.raises(NumericError):
        ad.log(ad.as_tensor(-1.0))


def test_sqrt_of_negative_raises():
    with pytest.raises(NumericError):
        ad.sqrt(ad.as_tensor(-0.5))


def test_sigmoid_is_stable_at_extremes():
    out = ad.sigmoid(ad.as_tensor(np.array([-1000.0, 0.0, 1000.0])))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] >= 0.0 and out.data[2] <= 1.0
    assert out.data[1] == pytest.approx(0.5)


def test_saturated_sigmoid_keeps_nonzero_gradient():
    # out rounds to exactly 1.0 past logit ~37; the gradient must not round
    # to zero with it, or saturated units would be unrecoverable
    x = variable(np.array([40.0, -40.0]))
    (g,) = ad.backward(ad.sum(ad.sigmoid(x)), [x])
    assert ad.sigmoid(ad.as_tensor(40.0)).data == 1.0
    assert g.data[0] > 0.0 and g.data[1] > 0.0


def test_nan_input_rejected_at_construction():
    with pytest.raises(NumericError):
        Tensor(np.array([1.0, np.nan]))


def test_shape_mismatch_is_configuration_error():
    with pytest.raises(ConfigurationError):
        ad.add(ad.as_tensor(np.ones((2, 3))), ad.as_tensor(np.ones((4,))))
    with pytest.raises(ConfigurationError):
        ad.matmul(ad.as_tensor(np.ones((2, 3))), ad.as_tensor(np.ones((2, 3))))
    with pytest.raises(ConfigurationError):
        ad.matmul(ad.as_tensor(np.ones((2, 3))), ad.as_tensor(np.ones((3, 2))),
                  transpose_a=True)
    with pytest.raises(ConfigurationError):
        ad.kernel_taps(ad.as_tensor(np.ones((2, 3, 4, 4))), _RESIZE_TAPS)


def test_matmul_transposes_at_most_one_operand():
    a = ad.as_tensor(np.ones((3, 3)))
    with pytest.raises(UsageError):
        ad.matmul(a, a, transpose_a=True, transpose_b=True)


def test_leaky_relu_uses_configured_slope():
    x = ad.as_tensor(np.array([-2.0, 2.0]))
    out = ad.leaky_relu(x)
    np.testing.assert_allclose(out.data, [-0.4, 2.0])


def test_kernel_taps_pair_is_adjoint():
    # <A x, y> == <x, A^T y> with A = kernel_taps(., m), A^T = kernel_taps(., m.T)
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 3))
    for _ in range(20):
        x = rng.standard_normal((5, 3, 3, 3))
        ax = ad.kernel_taps(ad.as_tensor(x), m).data
        assert ax.shape == (3, 5, 4, 4)
        y = rng.standard_normal(ax.shape)
        aty = ad.kernel_taps(ad.as_tensor(y), m.T).data
        assert aty.shape == x.shape
        lhs, rhs = np.sum(ax * y), np.sum(x * aty)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_kernel_taps_sums_resize_taps():
    w = np.arange(9.0).reshape(1, 1, 3, 3)
    k = ad.kernel_taps(ad.as_tensor(w), _RESIZE_TAPS).data
    assert k.shape == (1, 1, 4, 4)
    # along each axis the 4x4 taps are [w2, w1 + w2, w0 + w1, w0]; the rows
    # of w are [0, 1, 2], [3, 4, 5], [6, 7, 8]
    np.testing.assert_array_equal(k[0, 0], [
        [8.0, 7.0 + 8.0, 6.0 + 7.0, 6.0],
        [5.0 + 8.0, 4.0 + 5.0 + 7.0 + 8.0, 3.0 + 4.0 + 6.0 + 7.0, 3.0 + 6.0],
        [2.0 + 5.0, 1.0 + 2.0 + 4.0 + 5.0, 0.0 + 1.0 + 3.0 + 4.0, 0.0 + 3.0],
        [2.0, 1.0 + 2.0, 0.0 + 1.0, 0.0],
    ])


def test_concat_then_slice_recovers_parts():
    a = np.random.default_rng(0).random((2, 3, 4, 4))
    b = np.random.default_rng(1).random((2, 2, 4, 4))
    cat = ad.concat_channels([ad.as_tensor(a), ad.as_tensor(b)])
    np.testing.assert_array_equal(ad.channel_slice(cat, 0, 3).data, a)
    np.testing.assert_array_equal(ad.channel_slice(cat, 3, 5).data, b)


def test_l2_norm_per_row_values():
    x = ad.as_tensor(np.array([[3.0, 4.0], [0.0, 0.0]]).reshape(2, 2))
    norms = ad.l2_norm_per_row(x)
    assert norms.shape == (2,)
    assert norms.data[0] == pytest.approx(5.0)


def test_gradient_tolerance_constant_is_strict():
    assert TOL_PRIMITIVE <= 1e-6


def test_check_of_a_constant_function_fails():
    # all-zero finite differences would match a backward rule returning zeros
    result = check_scalar_function(
        "constant", lambda t: ad.sum(ad.mul(t[0], 0.0)), [np.ones((2, 3))], TOL_PRIMITIVE
    )
    assert result.max_error == float("inf")
    assert not result.passed


def test_zero_gradient_on_one_array_of_a_check_is_allowed():
    result = check_scalar_function(
        "one constant input",
        lambda t: ad.sum(ad.add(ad.square(t[0]), ad.mul(t[1], 0.0))),
        [np.full(3, 0.5), np.ones(3)],
        TOL_PRIMITIVE,
    )
    assert result.passed
