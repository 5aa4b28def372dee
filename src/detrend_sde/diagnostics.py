"""Boundedness scans, weak-error comparison and convergence fitting."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .models import _sampling_box, _spectral_norms
from .sampling import sample_time_box
from .transform import (DiscrepancyTable, TransformedCoefficients, map_back,
                        simulate_original, simulate_transformed)

# Seed offset that decouples weak_error_compare's two ensembles.
_SEED_DECOUPLE = 0x9E3779B9


@dataclass
class SupEntry:
    value: float
    at_t: float
    at_x: list


@dataclass
class CheckEntry:
    passed: bool
    measured: float
    bound: float


@dataclass
class ScanReport:
    """Sup-norms of transformed quantities over a space-time box, with
    the grid point attaining each supremum; reproducible bitwise from
    (inputs, seed)."""

    kind: str
    t_span: tuple
    lo: list
    hi: list
    n_samples: int
    seed: int
    sups: dict[str, SupEntry]
    checks: dict[str, CheckEntry]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _sup(values, ts, xs) -> SupEntry:
    values = np.asarray(values, dtype=float)
    i = int(np.nanargmax(values))
    return SupEntry(value=float(values[i]), at_t=float(ts[i]),
                    at_x=np.asarray(xs[i], dtype=float).tolist())


def boundedness_scan(target, n_samples: int = 256,
                     seed: int = 0) -> ScanReport:
    """Scan transformed coefficients for boundedness.

    The scan walks quasi-random (t, y) samples (time endpoints
    included) over the box x0 +- 2, records sup-norms of
    m_tilde, sigma_tilde, the flow constants and the curvature tensor,
    and checks them against the bounds the derivative and ellipticity
    constants imply.  Failures happen only on non-finite values or
    violated bounds.  target must be TransformedCoefficients (TypeError
    otherwise); a transformed chain run stores its per-step
    coefficients, whose sups the transform-chain job reports itself.
    """
    if not isinstance(target, TransformedCoefficients):
        raise TypeError("target must be TransformedCoefficients")
    model = target.source
    lo, hi = _sampling_box(model)
    t_span = (0.0, float(model.horizon))
    ts, xs = sample_time_box(t_span, lo, hi, n_samples, seed, include_ends=True)

    mt, st, jets = target.evaluate_batch(ts, xs, return_jets=True)
    m_norm = np.linalg.norm(mt, axis=1)
    s_norm = _spectral_norms(st)
    gs_norm = _spectral_norms(jets["g_star"])
    gsi_norm = _spectral_norms(jets["g_star_inv"])
    c_max = np.abs(jets["c"]).max(axis=(1, 2, 3))
    dets = jets["det_g_star"]
    w = np.linalg.eigvalsh(st @ st.transpose(0, 2, 1))
    eig_lo, eig_hi = w[:, 0], w[:, -1]

    sups = {
        "m_tilde_norm": _sup(m_norm, ts, xs),
        "sigma_tilde_norm": _sup(s_norm, ts, xs),
        "g_star_norm": _sup(gs_norm, ts, xs),
        "g_star_inv_norm": _sup(gsi_norm, ts, xs),
        "c_max": _sup(c_max, ts, xs),
        "det_max": _sup(dets, ts, xs),
    }
    d = model.dim
    m_f = model.drift.m_f
    T = model.horizon
    lam = model.lambda_
    growth = np.sqrt(d) * np.exp(m_f * T)
    # m_tilde evaluates m at g(t; 0, y), not at the sample y itself.
    sup_m_source = np.linalg.norm(model.bounded_drift(ts[:, None], jets["g"]),
                                  axis=1).max()
    gsi_sup = gsi_norm.max()
    gs_sup = gs_norm.max()
    slack = 1.0 + 1e-9

    def upper(measured, bound):
        return CheckEntry(bool(measured <= bound * slack), float(measured),
                          float(bound))

    def lower(measured, bound):
        # Both lower bounds are of positive quantities; an underflowed
        # bound must not pass a zero.
        return CheckEntry(bool(measured >= bound / slack and measured > 0),
                          float(measured), float(bound))

    all_finite = all(np.all(np.isfinite(a)) for a in
                     (m_norm, s_norm, gs_norm, gsi_norm, c_max, dets))
    checks = {
        "finite": CheckEntry(all_finite, 0.0 if all_finite else np.inf, np.inf),
        "g_star_growth": upper(gs_sup, growth),
        "g_star_inv_growth": upper(gsi_sup, growth),
        "det_upper": upper(dets.max(), np.exp(d * m_f * T)),
        "det_lower": lower(dets.min(), np.exp(-d * m_f * T)),
        "m_tilde_bound": upper(m_norm.max(), gsi_sup * (
            sup_m_source + 0.5 * d * d * c_max.max() * lam)),
        "sigma_tilde_bound": upper(s_norm.max(), gsi_sup * np.sqrt(lam)),
        "ellipticity_lower": lower(eig_lo.min(), (1.0 / lam) / (gs_sup ** 2)),
        "ellipticity_upper": upper(eig_hi.max(), lam * gsi_sup ** 2),
    }
    return ScanReport(kind="sde_transform", t_span=t_span,
                      lo=np.atleast_1d(lo).tolist(), hi=np.atleast_1d(hi).tolist(),
                      n_samples=n_samples, seed=seed, sups=sups, checks=checks)


@dataclass
class WeakErrorRow:
    name: str
    mean_original: float
    mean_mapped_back: float
    std_error: float
    z_score: float


def weak_error_compare(tc: TransformedCoefficients, n_steps: int,
                       n_paths: int, seed: int,
                       test_functions) -> list[WeakErrorRow]:
    """Compare terminal-time expectations of tc.source's original scheme
    and the back-mapped transformed scheme under independent noise.

    test_functions is a sequence of (name, fn) with fn mapping terminal
    states (n_paths, dim) to scalars per path.  The transformed scheme's
    seed is decoupled from seed deterministically, and matching laws
    give |z| <= 3 up to rare fluctuations.  Returns one row per test
    function.  pushforward_discrepancy is the shared-noise, path-by-path
    comparison.
    """
    orig = simulate_original(tc.source, n_steps, n_paths, seed)
    trans = simulate_transformed(tc, n_steps, n_paths, seed ^ _SEED_DECOUPLE)
    mapped = map_back(tc, trans)
    ok_o = ~orig.flagged
    ok_b = ~mapped.flagged
    yo = orig.paths[ok_o, -1, :]
    yb = mapped.paths[ok_b, -1, :]
    rows = []
    for name, fn in test_functions:
        fo = np.asarray(fn(yo), dtype=float)
        fb = np.asarray(fn(yb), dtype=float)
        mo, mb = float(fo.mean()), float(fb.mean())
        se = float(np.sqrt(fo.var(ddof=1) / fo.size + fb.var(ddof=1) / fb.size))
        z = 0.0 if mo == mb else (np.inf if se == 0.0 else (mo - mb) / se)
        rows.append(WeakErrorRow(name=name, mean_original=mo,
                                 mean_mapped_back=mb, std_error=se,
                                 z_score=float(z)))
    return rows


@dataclass
class ConvergenceTable:
    """Errors against resolution with a log-log least squares fit."""

    slope: float | None
    degenerate: bool = False
    monotone_violations: int = 0

    @classmethod
    def from_pairs(cls, pairs) -> "ConvergenceTable":
        if len(pairs) < 3:
            raise ValueError("a convergence table needs at least 3 rows")
        res = np.array([p[0] for p in pairs], dtype=float)
        err = np.array([p[1] for p in pairs], dtype=float)
        if len(set(res.tolist())) < res.size:
            raise ValueError("a convergence table needs distinct resolutions")
        order = np.argsort(res)[::-1]
        res, err = res[order], err[order]
        violations = int(np.sum(np.diff(err) > 0))
        if np.any(err <= 0.0):
            return cls(slope=None, degenerate=True,
                       monotone_violations=violations)
        slope = float(np.polyfit(np.log(res), np.log(err), 1)[0])
        return cls(slope=slope, monotone_violations=violations)


def strong_order_estimate(tables) -> ConvergenceTable:
    """Fit the strong order from terminal mean discrepancies over a set
    of refinements.  Exact-zero errors (an identical pair of schemes)
    make the table degenerate and no slope is fitted."""
    tables = list(tables)
    pairs = []
    for tab in tables:
        if not isinstance(tab, DiscrepancyTable):
            raise TypeError("strong_order_estimate expects DiscrepancyTable rows")
        h = float(tab.times[1] - tab.times[0])
        pairs.append((h, tab.terminal_mean))
    return ConvergenceTable.from_pairs(pairs)
