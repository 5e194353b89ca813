"""One forward-error bound for row-major and column-major weights.

Trainers keep ``W`` column-major, which makes BLAS sum some products in
a different order than it did row-major, so results may differ in their
last bits.  Neither order is more correct: both must stay inside the
classical inner-product error bound against an extended-precision
reference,

    |fl(a·W) − a·W|_ij ≤ γ_n · (|a|·|W|)_ij,   γ_n = n·u / (1 − n·u),

with ``u = 2⁻⁵³`` and ``n`` the inner dimension (``n + 1`` with the bias
term of ``matmul_add_bias``, whose bound also covers ``|b|``).  The
shapes are the paper's (§8.4): 784→1000→1000→10 at batch 1 and 20.

A single product can land within 0.1% of its bound, so the check also
admits the reference's own rounding (the same bound at the
``longdouble`` unit roundoff) and the float64 rounding of ``|a|·|W|``.
"""

import numpy as np
import pytest

from repro.backend import ComputeBackend

U = 2.0**-53
U_REF = float(np.finfo(np.longdouble).eps) / 2
SHAPES = [(784, 1000), (1000, 1000), (1000, 10)]
LAYOUTS = ["C", "F"]

pytestmark = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 60,
    reason="needs an extended-precision np.longdouble for the reference",
)


def gamma(n, u=U):
    return n * u / (1 - n * u)


def bound(n, abs_product):
    """γ_n·(|a|·|W|) plus the reference's error, from a float64 product."""
    return (gamma(n) + gamma(n, U_REF)) / (1 - gamma(n)) * abs_product


@pytest.fixture(scope="module")
def backend():
    return ComputeBackend()


def exact(x, y):
    return x.astype(np.longdouble) @ y.astype(np.longdouble)


@pytest.fixture(scope="module", params=[1, 20], ids=["batch1", "batch20"])
def operands(request):
    """Per shape: operands and the three exact products both layouts share.

    The operands are activations ``a``, weights ``w``, bias ``b`` and the
    layer's delta.
    """
    rng = np.random.default_rng(request.param)
    out = {}
    for n_in, n_out in SHAPES:
        a = rng.normal(size=(request.param, n_in))
        w = rng.normal(scale=np.sqrt(2.0 / n_in), size=(n_in, n_out))
        b = rng.normal(scale=0.1, size=n_out)
        delta = rng.normal(scale=0.1, size=(request.param, n_out))
        out[n_in, n_out] = (
            (a, w, b, delta),
            {
                "forward": exact(a, w) + b.astype(np.longdouble),
                "delta": exact(delta, w.T),
                "grad": exact(a.T, delta),
            },
        )
    return out


def assert_within(computed, reference, limit):
    err = np.abs(computed.astype(np.longdouble) - reference)
    worst = np.max(err / np.maximum(limit, np.finfo(float).tiny))
    assert np.all(err <= limit), f"worst error {float(worst):.3g} x bound"


@pytest.mark.parametrize("order", LAYOUTS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_forward_product(backend, operands, shape, order):
    (a, w, b, _), ref = operands[shape]
    z = backend.matmul_add_bias(a, np.asarray(w, order=order), b)
    limit = bound(shape[0] + 1, np.abs(a) @ np.abs(w) + np.abs(b))
    assert_within(z, ref["forward"], limit)


@pytest.mark.parametrize("order", LAYOUTS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_delta_propagation(backend, operands, shape, order):
    (_, w, _, delta), ref = operands[shape]
    da = backend.matmul(delta, np.asarray(w, order=order).T)
    limit = bound(shape[1], np.abs(delta) @ np.abs(w).T)
    assert_within(da, ref["delta"], limit)


@pytest.mark.parametrize("order", LAYOUTS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_weight_gradient(backend, operands, shape, order):
    """Row-major: the ``a.T @ delta`` of a row-major trainer; column-major:
    the ``grad_cols`` kernel every trainer now calls."""
    (a, _, _, delta), ref = operands[shape]
    if order == "C":
        g = a.T @ delta
    else:
        g = backend.grad_cols(a, delta)
        assert g.flags.f_contiguous
    limit = bound(a.shape[0], np.abs(a).T @ np.abs(delta))
    assert_within(g, ref["grad"], limit)
