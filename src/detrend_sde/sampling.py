"""Low-discrepancy sampling of space-time boxes for scans and checks."""

from __future__ import annotations

import numpy as np


def _primes(n: int) -> list[int]:
    """The first n primes, by trial division."""
    out: list[int] = []
    k = 2
    while len(out) < n:
        if all(k % p for p in out if p * p <= k):
            out.append(k)
        k += 1
    return out


def sample_box(lo, hi, n: int, seed: int) -> np.ndarray:
    """n quasi-random points in the axis-aligned box [lo, hi], shape (n, dim).

    Scrambled Halton: deterministic for a given seed, no power-of-two
    constraint on n.  Coordinate i is the radical inverse of the point
    index in the i-th prime base b, each digit passed through its own
    permutation of 0..b-1, one per base and digit position, drawn from
    default_rng(seed) (Owen, arXiv:1706.02808).  Every digit a double
    holds is scrambled, summed as an integer below b**n_digits <= 2**53.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or np.any(hi < lo):
        raise ValueError("box bounds must have equal shape with hi >= lo")
    rng = np.random.default_rng(seed)
    u = np.empty((n, lo.size))
    for col, b in enumerate(_primes(lo.size)):
        n_digits = next(k for k in range(53, 0, -1) if b ** k <= 2 ** 53)
        perms = rng.permuted(np.tile(np.arange(b), (n_digits, 1)), axis=1)
        powers = b ** np.arange(n_digits, dtype=np.int64)
        digits = np.arange(n)[:, None] // powers % b
        num = perms[np.arange(n_digits), digits] @ powers[::-1]
        u[:, col] = num / float(b ** n_digits)
    return lo + u * (hi - lo)


def sample_time_box(t_span, lo, hi, n: int, seed: int, include_ends: bool = False):
    """Quasi-random (t, x) samples over t_span x [lo, hi].

    Returns (ts, xs) with ts shape (m,), xs shape (m, dim).  With
    include_ends, a few extra samples are pinned to t = t_span[0] and
    t = t_span[1] so suprema attained on the time boundary are seen.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    pts = sample_box(np.concatenate(([t0], lo)), np.concatenate(([t1], hi)), n, seed)
    ts, xs = pts[:, 0], pts[:, 1:]
    if include_ends:
        n_end = max(2, n // 16)
        ends = sample_box(lo, hi, 2 * n_end, seed + 1)
        ts = np.concatenate([ts, np.full(n_end, t0), np.full(n_end, t1)])
        xs = np.concatenate([xs, ends])
    return ts, xs
