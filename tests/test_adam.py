"""Adam against a hand-written scalar recurrence."""

import numpy as np
import pytest

from shapegan.autodiff import AdamState, ParamSet, adam_step
from shapegan.autodiff.adam import BLOCK
from shapegan.errors import ConfigurationError


def reference_adam(p0, grads, lr, b1, b2, eps):
    """Same recurrence, written independently with python scalars."""
    p = float(p0)
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


@pytest.mark.parametrize("b1,b2", [(0.0, 0.9), (0.9, 0.999), (0.5, 0.5)])
def test_matches_scalar_recurrence(b1, b2):
    ps = ParamSet("t")
    ps.add("w", np.array([0.7]))
    state = AdamState.for_params(ps, lr=0.01, beta1=b1, beta2=b2, epsilon=1e-8)
    grads = [0.3, -1.2, 0.05, 2.0, -0.7]
    for g in grads:
        adam_step(ps, [np.array([g])], state)
    expected = reference_adam(0.7, grads, 0.01, b1, b2, 1e-8)
    assert ps["w"].data[0] == pytest.approx(expected, abs=1e-15)
    assert state.step == len(grads)


def whole_array_adam(p, m, v, grads, lr, b1, b2, eps):
    """The update as whole-array numpy expressions, one pass per ufunc."""
    for t, g in enumerate(grads, start=1):
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return p, m, v


@pytest.mark.parametrize("b1", [0.0, 0.9])
def test_blocked_update_equals_whole_array_update_bitwise(b1):
    # two full blocks and a ragged tail, in a 2-d parameter
    rng = np.random.default_rng(7)
    shape = (2 * BLOCK + 7, 1)
    p0 = rng.standard_normal(shape)
    grads = [rng.standard_normal(shape) * 10.0**k for k in (-3, 0, 2, -1)]
    ps = ParamSet("t")
    ps.add("w", p0)
    state = AdamState.for_params(ps, lr=1e-3, beta1=b1, beta2=0.9, epsilon=1e-8)
    for g in grads:
        adam_step(ps, [g], state)
    p, m, v = whole_array_adam(p0.copy(), np.zeros(shape), np.zeros(shape), grads,
                               1e-3, b1, 0.9, 1e-8)
    assert np.array_equal(ps["w"].data, p)
    assert np.array_equal(state.m["w"], m)
    assert np.array_equal(state.v["w"], v)


def test_zero_gradient_with_beta1_zero_leaves_param_bitwise():
    ps = ParamSet("t")
    ps.add("w", np.array([0.123456789, -4.2]))
    state = AdamState.for_params(ps, lr=0.1)  # beta1 = 0 default
    adam_step(ps, [np.array([1.0, -1.0])], state)
    snap = ps["w"].data.copy()
    adam_step(ps, [np.zeros(2)], state)
    # with beta1=0 the biased first moment is exactly the (zero) gradient
    np.testing.assert_array_equal(ps["w"].data, snap)


def test_independent_parameters_updated_independently():
    ps = ParamSet("t")
    ps.add("a", np.zeros(2))
    ps.add("b", np.zeros(3))
    state = AdamState.for_params(ps, lr=0.1)
    adam_step(ps, [np.array([1.0, 0.0]), np.zeros(3)], state)
    assert ps["a"].data[0] != 0.0
    assert ps["a"].data[1] == 0.0
    np.testing.assert_array_equal(ps["b"].data, np.zeros(3))


def test_gradient_count_mismatch():
    ps = ParamSet("t")
    ps.add("a", np.zeros(2))
    state = AdamState.for_params(ps, lr=0.1)
    with pytest.raises(ConfigurationError):
        adam_step(ps, [], state)


def test_gradient_shape_mismatch():
    ps = ParamSet("t")
    ps.add("a", np.zeros(2))
    state = AdamState.for_params(ps, lr=0.1)
    with pytest.raises(ConfigurationError):
        adam_step(ps, [np.zeros(3)], state)


def test_default_hyperparameters_are_wgan_convention():
    ps = ParamSet("t")
    ps.add("a", np.zeros(1))
    state = AdamState.for_params(ps, lr=1e-4)
    assert state.beta1 == 0.0
    assert state.beta2 == 0.9
    assert state.epsilon == 1e-8
