"""Coordinate change that removes the trend from the SDE.

With Yt = g^{-1}(0; t, Y_t), Ito's formula turns

    dY = {F(t, Y) + m(t, Y)} dt + sigma(t, Y) dW

into dYt = m_tilde(t, Yt) dt + sigma_tilde(t, Yt) dW with

    m_tilde(t, y)     = M { m(t, g) - 1/2 sum_{ij} c_ij a_ij(t, g) }
    sigma_tilde(t, y) = M sigma(t, g)

where g = g(t; 0, y), M = g_star_inv(t; 0, y), a = sigma sigma^T and
c_ij is the curvature vector of the inverse map (the quadratic
variation picks up -M c_ij, hence the negative correction).  Both
transformed coefficients are bounded when the derivative bounds and
ellipticity hold, although F itself may be unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flow import DEFAULT_TOL, advance_flow_many, flow_jet_many
from .models import ModelSpec
from .noise import normal_block, rademacher_block

SCHEME_ORIGINAL = "original"
SCHEME_TRANSFORMED = "transformed"
SCHEME_MAPPED_BACK = "mapped_back"

# Paths per coefficient-evaluation block.  A block shares one adaptive
# step sequence, and simulate_transformed carries one step size per
# block from each Euler step's solve to the next, so fixed boundaries
# keep a path's bits independent of the paths after its block.  Jet
# states are small (d + 2 d^2 + d^3 + 1 doubles per path), so large
# blocks amortize the per-step numpy overhead.
_COEFF_BLOCK = 8192


@dataclass
class TransformedCoefficients:
    """Drift and diffusion of the detrended SDE."""

    source: ModelSpec
    flow_tol: float

    def evaluate_batch(self, t, ys: np.ndarray, return_jets: bool = False):
        """Coefficients for a batch of states at time t, a scalar or one
        time per row: one flow solve, with each row's time rescaled to
        end at its own t, and one call of each model coefficient."""
        m_t, s_t, jets = _coefficients(self, t, ys)
        if return_jets:
            return m_t, s_t, jets
        return m_t, s_t


def _coefficients(tc: TransformedCoefficients, t, ys: np.ndarray,
                  h0: float | None = None):
    """evaluate_batch's (m_tilde, sigma_tilde, jets), its jet solve
    starting from the trial step h0 (None: rk's own estimate)."""
    ys = np.asarray(ys, dtype=float)
    jets = flow_jet_many(tc.source.drift, 0.0, t, ys, tol=tc.flow_tol,
                         order=2, h0=h0)
    g = jets["g"]
    M = jets["g_star_inv"]
    c = jets["c"]
    t = t if np.ndim(t) == 0 else np.reshape(t, (-1, 1))
    mv = tc.source.bounded_drift(t, g)
    sv = tc.source.sigma(t, g)
    a = np.einsum("bip,bjp->bij", sv, sv)
    corr = np.einsum("blij,bij->bl", c, a)
    m_t = np.einsum("bij,bj->bi", M, mv - 0.5 * corr)
    s_t = M @ sv
    return m_t, s_t, jets


def make_transform(model: ModelSpec, flow_tol: float = DEFAULT_TOL) -> TransformedCoefficients:
    """Build the transformed coefficients for a model that satisfies the
    standing assumptions.  Zero drift degenerates to the original pair.

    Flow failures propagate unchanged from evaluate_batch; a
    FlowIntegrationError carries the last time reached.
    """
    return TransformedCoefficients(source=model, flow_tol=flow_tol)


@dataclass
class PathEnsemble:
    """Euler paths on a shared uniform grid.

    paths has shape (n_paths, n_steps + 1, dim); flagged marks paths
    that left the floating-point range (they keep NaNs from the first
    bad step on, and the run continues).  simulate_transformed also
    keeps g_steps = g(t_k; 0, paths[:, k]) for k < n_steps, which its
    coefficient solves compute on the way (NaN on flagged paths).
    """

    times: np.ndarray
    paths: np.ndarray
    seed: int
    scheme: str
    flagged: np.ndarray
    g_steps: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        dt = np.diff(self.times)
        if not np.all(dt > 0):
            raise ValueError("times must be strictly increasing")


def _uniform_times(T: float, n_steps: int, n_paths: int = 1) -> np.ndarray:
    """n_steps equal steps on [0, T], the last time T exactly, for
    n_paths paths; ValueError unless both counts are >= 1."""
    if n_steps < 1 or n_paths < 1:
        raise ValueError("n_steps and n_paths must be >= 1")
    times = np.linspace(0.0, T, n_steps + 1)
    times[-1] = T
    return times


def _original_coefficients(model: ModelSpec):
    """(t, X) -> (F + m, sigma), the original SDE's Euler coefficients."""
    def coeff(t, y):
        return model.drift.f(t, y) + model.bounded_drift(t, y), model.sigma(t, y)
    return coeff


def _simulate_paths(times: np.ndarray, x0: np.ndarray, n_paths: int, seed: int,
                    coeff_fn, dim: int, noise: str = "normal",
                    store_noise: bool = False):
    """Shared Euler kernel: X_{k+1} = X_k + h mu(t_k, X_k) + sqrt(h) sig xi_k.

    coeff_fn(t, X) returns (mu, sig) for the whole batch.  Both the
    original and the transformed simulations run through this exact
    arithmetic, so coefficient-level equality is path-level equality.
    """
    draw = {"normal": normal_block, "rademacher": rademacher_block}[noise]
    n_steps = times.size - 1
    paths = np.empty((n_paths, n_steps + 1, dim))
    paths[:, 0, :] = x0
    flagged = np.zeros(n_paths, dtype=bool)
    noises = np.empty((n_paths, n_steps, dim)) if store_noise else None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            h = times[k + 1] - times[k]
            xi = draw(seed, k, n_paths, dim)
            if store_noise:
                noises[:, k, :] = xi
            y = paths[:, k, :]
            safe = np.where(flagged[:, None], x0, y)
            mu, sig = coeff_fn(times[k], safe)
            y_new = y + h * mu + np.sqrt(h) * np.einsum("bij,bj->bi", sig, xi)
            flagged |= ~np.all(np.isfinite(y_new), axis=1)
            paths[:, k + 1, :] = y_new
    return paths, flagged, noises


def simulate_original(model: ModelSpec, n_steps: int, n_paths: int,
                      seed: int) -> PathEnsemble:
    """Euler scheme for the original SDE on the uniform grid over
    [0, horizon]."""
    times = _uniform_times(model.horizon, n_steps, n_paths)
    paths, flagged, _ = _simulate_paths(times, model.x0, n_paths, seed,
                                        _original_coefficients(model), model.dim)
    return PathEnsemble(times=times, paths=paths, seed=seed,
                        scheme=SCHEME_ORIGINAL, flagged=flagged)


def simulate_transformed(tc: TransformedCoefficients, n_steps: int, n_paths: int,
                         seed: int) -> PathEnsemble:
    """Euler scheme for the detrended SDE, consuming the same innovation
    stream as simulate_original for equal (seed, path, step).

    Each Euler step solves the jets from 0 to t_k afresh.  The first
    solve of a block of _COEFF_BLOCK paths estimates its starting step;
    each later one starts from the step its block's previous solve
    would have taken next.  The coefficients then agree with cold
    evaluate_batch calls to the flow tolerance, not bit for bit.
    """
    model = tc.source
    times = _uniform_times(model.horizon, n_steps, n_paths)
    g_steps = np.empty((n_paths, n_steps, model.dim))
    columns = iter(g_steps.transpose(1, 0, 2))
    blocks = range(0, n_paths, _COEFF_BLOCK)
    steps = [None] * len(blocks)

    def coeff(t, y):
        g = next(columns)
        mu = np.empty_like(y)
        sig = np.empty(y.shape + (y.shape[1],))
        for i, a in enumerate(blocks):
            sl = slice(a, a + _COEFF_BLOCK)
            mu[sl], sig[sl], jets = _coefficients(tc, t, y[sl], steps[i])
            g[sl], steps[i] = jets["g"], jets["step"]
        return mu, sig

    paths, flagged, _ = _simulate_paths(times, model.x0, n_paths, seed,
                                        coeff, model.dim)
    g_steps[flagged, 1:, :] = np.nan
    return PathEnsemble(times=times, paths=paths, seed=seed,
                        scheme=SCHEME_TRANSFORMED, flagged=flagged,
                        g_steps=g_steps)


def map_back(tc: TransformedCoefficients, ensemble: PathEnsemble) -> PathEnsemble:
    """Push a transformed ensemble through g(t_k; 0, .) columnwise.

    Columns k < n_steps are the ensemble's g_steps; only the last time
    needs a flow solve of its own.  Raises ValueError for an ensemble
    without g_steps, i.e. one not made by simulate_transformed.
    """
    if ensemble.g_steps is None:
        raise ValueError("map_back needs the g_steps of simulate_transformed")
    model = tc.source
    flagged = ensemble.flagged.copy()
    last = np.where(flagged[:, None], model.x0, ensemble.paths[:, -1, :])
    last = advance_flow_many(model.drift, 0.0, float(ensemble.times[-1]), last,
                             tol=tc.flow_tol)
    mapped = np.concatenate((ensemble.g_steps, last[:, None, :]), axis=1)
    mapped[flagged, 1:, :] = np.nan
    return PathEnsemble(times=ensemble.times.copy(), paths=mapped,
                        seed=ensemble.seed, scheme=SCHEME_MAPPED_BACK,
                        flagged=flagged)


@dataclass
class DiscrepancyTable:
    """Per-time distance between original paths and back-mapped
    transformed paths under shared noise."""

    times: np.ndarray
    mean: np.ndarray
    max: np.ndarray
    n_steps: int
    n_flagged: int

    @property
    def terminal_mean(self) -> float:
        return float(self.mean[-1])


def pushforward_discrepancy(tc: TransformedCoefficients, n_steps: int,
                            n_paths: int, seed: int) -> DiscrepancyTable:
    """Simulate both schemes of tc.source with shared noise, map the
    transformed one back, and tabulate ||Y_k - g(t_k; 0, Yt_k)|| over
    time."""
    orig = simulate_original(tc.source, n_steps, n_paths, seed)
    trans = simulate_transformed(tc, n_steps, n_paths, seed)
    return _discrepancy_table(orig, map_back(tc, trans))


def _discrepancy_table(orig: PathEnsemble, mapped: PathEnsemble) -> DiscrepancyTable:
    """pushforward_discrepancy's table from orig and map_back(tc, trans)."""
    ok = ~(orig.flagged | mapped.flagged)
    if not np.any(ok):
        raise ValueError("every path overflowed; nothing to compare")
    diff = np.linalg.norm(orig.paths[ok] - mapped.paths[ok], axis=2)
    return DiscrepancyTable(times=orig.times.copy(),
                            mean=diff.mean(axis=0), max=diff.max(axis=0),
                            n_steps=orig.times.size - 1,
                            n_flagged=int((~ok).sum()))
