"""Boundedness scans, weak-error comparison and convergence fitting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import ModelSpec, _per_time, _spectral_norms
from .sampling import sample_time_box
from .transform import (DiscrepancyTable, TransformedCoefficients, map_back,
                        simulate_original, simulate_transformed)

# Seed offset used to decouple the two ensembles when noise is not shared.
_SEED_DECOUPLE = 0x9E3779B9


@dataclass
class SupEntry:
    value: float
    at_t: float
    at_x: list

    def to_dict(self) -> dict:
        return {"value": self.value, "at_t": self.at_t, "at_x": self.at_x}


@dataclass
class CheckEntry:
    passed: bool
    measured: float
    bound: float

    def to_dict(self) -> dict:
        return {"passed": bool(self.passed), "measured": self.measured,
                "bound": self.bound}


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
        return {
            "kind": self.kind,
            "t_span": [float(self.t_span[0]), float(self.t_span[1])],
            "lo": self.lo, "hi": self.hi,
            "n_samples": self.n_samples, "seed": self.seed,
            "passed": self.passed,
            "sups": {k: v.to_dict() for k, v in self.sups.items()},
            "checks": {k: v.to_dict() for k, v in self.checks.items()},
        }


def _sup(values, ts, xs) -> SupEntry:
    values = np.asarray(values, dtype=float)
    i = int(np.nanargmax(values))
    return SupEntry(value=float(values[i]), at_t=float(ts[i]),
                    at_x=np.asarray(xs[i], dtype=float).tolist())


def boundedness_scan(target, box=None, n_samples: int = 256,
                     seed: int = 0) -> ScanReport:
    """Scan transformed coefficients for boundedness.

    For TransformedCoefficients the scan walks quasi-random (t, y)
    samples (time endpoints included), records sup-norms of m_tilde,
    sigma_tilde, the flow constants and the curvature tensor, and
    checks them against the bounds the derivative and ellipticity
    constants imply.  For a transformed chain run it reduces the stored
    per-step coefficient arrays instead; box and n_samples are ignored.
    Failures happen only on non-finite values or violated bounds.
    """
    if hasattr(target, "m_coeffs"):
        return _scan_chain(target)
    if not isinstance(target, TransformedCoefficients):
        raise TypeError("target must be TransformedCoefficients or a "
                        "transformed chain run")
    model = target.source
    if box is None:
        lo, hi = model.x0 - 2.0, model.x0 + 2.0
    else:
        lo = np.asarray(box[0], dtype=float)
        hi = np.asarray(box[1], dtype=float)
    t_span = (0.0, model.horizon)
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
    sup_m_source = np.linalg.norm(_per_time(model.bounded_drift, ts, jets["g"]),
                                  axis=1).max()
    gsi_sup = gsi_norm.max()
    gs_sup = gs_norm.max()
    slack = 1.0 + 1e-9
    all_finite = all(np.all(np.isfinite(a)) for a in
                     (m_norm, s_norm, gs_norm, gsi_norm, c_max, dets))
    checks = {
        "finite": CheckEntry(all_finite, 0.0 if all_finite else np.inf, np.inf),
        "g_star_growth": CheckEntry(gs_sup <= growth * slack, float(gs_sup), float(growth)),
        "g_star_inv_growth": CheckEntry(gsi_sup <= growth * slack, float(gsi_sup), float(growth)),
        "det_upper": CheckEntry(dets.max() <= np.exp(d * m_f * T) * slack,
                                float(dets.max()), float(np.exp(d * m_f * T))),
        "det_lower": CheckEntry(dets.min() >= np.exp(-d * m_f * T) / slack,
                                float(dets.min()), float(np.exp(-d * m_f * T))),
        "m_tilde_bound": CheckEntry(
            m_norm.max() <= gsi_sup * (sup_m_source + 0.5 * d * d * c_max.max() * lam) * slack,
            float(m_norm.max()),
            float(gsi_sup * (sup_m_source + 0.5 * d * d * c_max.max() * lam))),
        "sigma_tilde_bound": CheckEntry(
            s_norm.max() <= gsi_sup * np.sqrt(lam) * slack,
            float(s_norm.max()), float(gsi_sup * np.sqrt(lam))),
        "ellipticity_lower": CheckEntry(
            eig_lo.min() >= (1.0 / lam) / (gs_sup ** 2) / slack and eig_lo.min() > 0,
            float(eig_lo.min()), float((1.0 / lam) / (gs_sup ** 2))),
        "ellipticity_upper": CheckEntry(
            eig_hi.max() <= lam * gsi_sup ** 2 * slack,
            float(eig_hi.max()), float(lam * gsi_sup ** 2)),
    }
    return ScanReport(kind="sde_transform", t_span=t_span,
                      lo=np.atleast_1d(lo).tolist(), hi=np.atleast_1d(hi).tolist(),
                      n_samples=n_samples, seed=seed, sups=sups, checks=checks)


def _scan_chain(run) -> ScanReport:
    ok = ~run.flagged
    m = run.m_coeffs[ok]
    s = run.sigma_coeffs[ok]
    m_norm = np.linalg.norm(m, axis=2)
    s_norm = _spectral_norms(s)
    times = run.partition.times

    def entry(values):
        p, k = np.unravel_index(np.argmax(values), values.shape)
        return SupEntry(value=float(values[p, k]), at_t=float(times[k]),
                        at_x=[int(p)])
    finite = bool(np.all(np.isfinite(m)) and np.all(np.isfinite(s)))
    checks = {
        "finite": CheckEntry(finite, 0.0 if finite else np.inf, np.inf),
        "identity_residual": CheckEntry(
            bool(np.nanmax(run.identity_residuals) < np.inf),
            float(np.nanmax(run.identity_residuals)), np.inf),
    }
    return ScanReport(kind="chain", t_span=(0.0, run.partition.horizon),
                      lo=[], hi=[], n_samples=int(m.shape[0] * m.shape[1]),
                      seed=run.seed,
                      sups={"m_tilde_norm": entry(m_norm),
                            "sigma_tilde_norm": entry(s_norm)},
                      checks=checks)


@dataclass
class WeakErrorRow:
    name: str
    mean_original: float
    mean_mapped_back: float
    std_error: float
    z_score: float

    def to_dict(self) -> dict:
        return {"name": self.name, "mean_original": self.mean_original,
                "mean_mapped_back": self.mean_mapped_back,
                "std_error": self.std_error, "z_score": self.z_score}


@dataclass
class WeakErrorReport:
    rows: list[WeakErrorRow]
    n_paths: int
    n_steps: int
    shared_noise: bool
    strong_discrepancy: float | None = None

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows],
                "n_paths": self.n_paths, "n_steps": self.n_steps,
                "shared_noise": self.shared_noise,
                "strong_discrepancy": self.strong_discrepancy}


def weak_error_compare(model: ModelSpec, tc: TransformedCoefficients,
                       n_steps: int, n_paths: int, seed: int,
                       test_functions, shared_noise: bool = False) -> WeakErrorReport:
    """Compare terminal-time expectations of the original scheme and the
    back-mapped transformed scheme.

    test_functions is a sequence of (name, fn) with fn mapping terminal
    states (n_paths, dim) to scalars per path.  With independent noise
    (default, transformed seed decoupled deterministically) matching
    laws give |z| <= 3 up to rare fluctuations; with shared noise the
    mean path distance is reported as strong_discrepancy instead.
    """
    seed_b = seed if shared_noise else (seed ^ _SEED_DECOUPLE)
    orig = simulate_original(model, n_steps, n_paths, seed)
    trans = simulate_transformed(tc, n_steps, n_paths, seed_b)
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
    strong = None
    if shared_noise:
        both = ok_o & ok_b
        strong = float(np.linalg.norm(
            orig.paths[both, -1, :] - mapped.paths[both, -1, :], axis=1).mean())
    return WeakErrorReport(rows=rows, n_paths=n_paths, n_steps=n_steps,
                           shared_noise=shared_noise, strong_discrepancy=strong)


@dataclass
class ConvergenceTable:
    """Errors against resolution with a log-log least squares fit."""

    resolutions: np.ndarray
    errors: np.ndarray
    slope: float | None
    fit_residual: float | None
    degenerate: bool = False
    monotone_violations: int = 0

    @classmethod
    def from_pairs(cls, pairs) -> "ConvergenceTable":
        if len(pairs) < 3:
            raise ValueError("a convergence table needs at least 3 rows")
        res = np.array([p[0] for p in pairs], dtype=float)
        err = np.array([p[1] for p in pairs], dtype=float)
        order = np.argsort(res)[::-1]
        res, err = res[order], err[order]
        violations = int(np.sum(np.diff(err) > 0))
        if np.any(err <= 0.0):
            return cls(resolutions=res, errors=err, slope=None,
                       fit_residual=None, degenerate=True,
                       monotone_violations=violations)
        coeffs, just_res, *_ = np.polyfit(np.log(res), np.log(err), 1, full=True)
        resid = float(np.sqrt(just_res[0] / res.size)) if just_res.size else 0.0
        return cls(resolutions=res, errors=err, slope=float(coeffs[0]),
                   fit_residual=resid, degenerate=False,
                   monotone_violations=violations)

    def to_dict(self) -> dict:
        return {"resolutions": self.resolutions.tolist(),
                "errors": self.errors.tolist(), "slope": self.slope,
                "fit_residual": self.fit_residual,
                "degenerate": self.degenerate,
                "monotone_violations": self.monotone_violations}


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
