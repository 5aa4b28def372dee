"""Shared fixtures and frozen reference values.

The numbers in FROZEN were produced by tests/_oracles.py (fixed-step
RK4 on independently assembled jet equations, run at two resolutions
that agree to ~1.7e-14).  Regenerate with:  python3 -m tests._oracles
"""

import numpy as np
import pytest

from detrend_sde import DriftSpec, builtin_model

FROZEN = {
    "sine2_y": np.array([0.7746831755969261, -0.5973329936227757]),
    "sine2_g_star": np.array([[1.701173949394173, 0.0],
                              [0.0, 1.8433238758465678]]),
    "sine2_g_star_inv": np.array([[0.587829363573386, 0.0],
                                  [0.0, 0.542498262569694]]),
    "sine2_c": np.array([[[-0.5128993218722041, 0.0], [0.0, 0.0]],
                         [[0.0, 0.0], [0.0, 0.39244551240577263]]]),
    "sine2_trace_integral": 1.1428889674126996,
    "sine2_det": 3.1358145578864804,
    "swap2_y": np.array([0.46419673610353773, 0.08318622418838358]),
    "swap2_g_star": np.array([[1.1787380685544504, 0.666962474060585],
                              [0.5841707633014139, 1.1789048089958918]]),
    "swap2_c": np.array(
        [[[-0.12245367484080436, 0.02663249163739083],
          [0.02663249163739083, 0.03805046432952528]],
         [[-0.40668529615076354, 0.12245367484080379],
          [0.12245367484080376, -0.02663249163739098]]]),
    "swap2_m_tilde": np.array([0.33961749380718953, -0.11568407364822811]),
    "swap2_sigma_tilde": np.array(
        [[1.0610143280963167, -0.49787775966747605],
         [-0.525753686971284, 1.1797777227496187]]),
    "sine1_m_tilde": np.array([0.34039234981497457]),
    "sine1_sigma_tilde": np.array([[0.6169178724219843]]),
}

# Evaluation points matching the frozen values above.
SINE2_PARAMS = dict(alpha=0.8, beta=1.3, dim=2)
SINE2_T = 0.7
SINE2_X = np.array([0.4, -0.3])
SWAP2_T = 0.8
SWAP2_X = np.array([0.5, -0.2])
SINE1_T = 0.5
SINE1_X = np.array([0.2])


@pytest.fixture
def sine2_model():
    return builtin_model("sine", **SINE2_PARAMS)


@pytest.fixture
def sine1_model():
    return builtin_model("sine", alpha=1.0, beta=1.0, dim=1)


def _rowwise(fn):
    """fn(t, row) over a batch of rows; t is a scalar or one time per row."""
    def batched(t, x):
        if x.ndim == 1:
            return fn(t, x)
        ts = np.broadcast_to(np.reshape(t, -1), len(x))
        return np.stack([fn(t_i, row) for t_i, row in zip(ts, x)])
    return batched


def make_swap_drift():
    """Coupled time-dependent drift matching tests/_oracles.swap_fields."""
    from tests._oracles import swap_fields
    f, jac, hess = swap_fields(0.6, 1.1)
    # sup over [0, 1]: scale <= 1.5, |f'| <= 1.5*0.6*1.1, |f''| <= 1.5*0.6*1.21
    return DriftSpec(f=_rowwise(f), jac=_rowwise(jac), hess=_rowwise(hess),
                     m_f=1.5 * 0.6 * 1.21, dim=2)


@pytest.fixture
def swap_drift():
    return make_swap_drift()


def quadratic_drift():
    """1-d F(x) = x^2 with closed-form flow x / (1 - t x).

    Unbounded derivatives, so only valid locally; used to pin down the
    curvature correction sign against exact formulas.
    """
    def f(t, x):
        return x * x

    def jac(t, x):
        # x has shape (..., 1); the Jacobian is (..., 1, 1).
        return 2.0 * x[..., None]

    def hess(t, x):
        return np.full(x.shape + (1, 1), 2.0)

    return DriftSpec(f=f, jac=jac, hess=hess, m_f=10.0, dim=1)
