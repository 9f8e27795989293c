"""Random-walk simulators for the generalized-convolution algebras.

A walk is the Markov chain X_{k+1} ~ delta_{X_k} <> mu.  Four algebras have
exact pathwise recursions (classical, alpha-stable, max, Kendall via its
uniform/Pareto catalyzer pair); the symmetric, Kingman and Kendall-type
algebras use exact mixture representations of the point-mass convolution.
A "generic" sampler that inverts the exact point-mass convolution laws
(the quantile of convolve_points) is kept as an independent cross-check of
the specialized recursions.

Determinism contract: single paths draw their randomness from a per-step
stream seeded by (seed, step index), so a path restarted from (X_k, seed)
at step offset k reproduces its suffix exactly.  Every batched Monte Carlo
routine splits its paths with chunk_streams into fixed-width chunks with
streams seeded by (seed, chunk index), so results never depend on scheduling.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .convolutions import ConvolutionAlgebra, _pair_quantile
from .convolutions import _kendall_type_lambda1, _kendall_type_lambda2
from .measures import Distribution, ParameterError, _check_finite, _invert_cdf

__all__ = [
    "CHUNK",
    "WalkPath",
    "apply_step_batch",
    "simulate",
    "simulate_terminal",
    "simulate_terminal_generic",
]

#: fixed batch width; the chunk partition depends only on the path count
CHUNK = 16384


def chunk_streams(paths: int, seed: int, width: int = CHUNK, key: tuple = ()):
    """Yield (lo, hi, rng) for paths [lo, hi) in chunks of `width`.

    Chunk ci draws from default_rng([seed, *key, ci]); `key` separates
    streams that share a seed.
    """
    for ci, lo in enumerate(range(0, paths, width)):
        yield lo, min(lo + width, paths), np.random.default_rng([seed, *key, ci])


@dataclass(frozen=True)
class WalkPath:
    """One realized trajectory X_0 ... X_n together with its step values."""

    states: tuple[float, ...]
    algebra: ConvolutionAlgebra
    start: float
    seed: int
    steps: tuple[float, ...] = ()


def _pareto_2alpha_draws(rng: np.random.Generator, alpha: float, n: int) -> np.ndarray:
    # inverse CDF of 1 - x^(-2 alpha) on [1, oo)
    return np.power(1.0 - rng.random(n), -1.0 / (2.0 * alpha))


def apply_step_batch(alg: ConvolutionAlgebra, x: np.ndarray, u: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Vectorized draw of X' ~ delta_x <> delta_u for each (x, u) pair.

    Only the algebra's auxiliary randomness is drawn here (always the same
    number of rng calls per invocation, so masked/parallel callers stay
    reproducible); the step values u come from the caller.
    """
    k = alg.kind
    n = x.shape[0]
    if k == "classical":
        return x + u
    if k == "alpha_stable":
        a = alg.alpha
        return np.power(np.power(x, a) + np.power(u, a), 1.0 / a)
    if k == "max":
        return np.maximum(x, u)
    if k == "symmetric":
        plus = rng.random(n) < 0.5
        return np.where(plus, x + u, np.abs(x - u))
    if k == "kendall":
        # keep M = max(x, u) with probability 1 - (min/max)^a, else jump to
        # M * pi with pi a Pareto(2a) catalyzer draw >= 1
        a = alg.alpha
        xi = rng.random(n)
        pi = _pareto_2alpha_draws(rng, a, n)
        big = np.maximum(x, u)
        small = np.minimum(x, u)
        rho = np.power(np.divide(small, big, out=np.zeros(n), where=big > 0), a)
        return np.where(xi >= rho, big, big * pi)
    if k == "kingman":
        a = alg.s + 0.5
        theta = 2.0 * rng.beta(a, a, n) - 1.0
        return np.sqrt(np.maximum(x * x + u * u + 2.0 * x * u * theta, 0.0))
    if k == "kendall_type":
        return _kendall_type_step_batch(alg, x, u, rng)
    raise ParameterError(f"unknown algebra kind {alg.kind!r}")


def _kendall_type_step_batch(alg: ConvolutionAlgebra, x: np.ndarray, u: np.ndarray,
                             rng: np.random.Generator) -> np.ndarray:
    """Sample from the three-component mixture phi(r) delta_M + r^p L1 + (c+1)(r - r^p) L2."""
    c, p = alg.c, alg.p
    big = np.maximum(x, u)
    small = np.minimum(x, u)
    n = x.shape[0]
    r = np.divide(small, big, out=np.zeros(n), where=big > 0)
    w_atom = 1.0 - (c + 1.0) * r + c * np.power(r, p)
    w1 = np.power(r, p)
    v = rng.random(n)
    q = rng.random(n)  # always drawn, used only on the continuous branches
    out = np.array(big, copy=True)
    lam1 = _kendall_type_lambda1(alg)
    lam2 = _kendall_type_lambda2(alg)
    on1 = (v >= w_atom) & (v < w_atom + w1)
    on2 = v >= w_atom + w1
    if np.any(on1):
        out[on1] = big[on1] * _invert_cdf(lam1.cdf_fn, q[on1], 1.0, np.inf)
    if np.any(on2):
        out[on2] = big[on2] * _invert_cdf(lam2.cdf_fn, q[on2], 1.0, np.inf)
    return out


def _check_walk(start: float, n: int = 0, paths: int = 1) -> None:
    """The one input check of every walk entry point."""
    if n < 0:
        raise ParameterError("n must be >= 0")
    if paths < 1:
        raise ParameterError("paths must be >= 1")
    _check_finite(start=start)
    if start < 0:
        raise ParameterError("start must be nonnegative")


def simulate(alg: ConvolutionAlgebra, step_law: Distribution, n: int,
             start: float = 0.0, seed: int = 0, first_step: int = 0) -> WalkPath:
    """One walk of n steps from `start`; step k uses the stream (seed, k).

    `first_step` offsets the step indices, so restarting from an intermediate
    state reproduces the remaining path: simulate(..., n - k, start=X_k,
    seed=seed, first_step=k) matches steps k+1 ... n of the original run.
    """
    _check_walk(start, n)
    states = [float(start)]
    steps = []
    x = np.array([float(start)])
    for k in range(1, n + 1):
        rng = np.random.default_rng([seed, first_step + k])
        u = step_law.sample(1, rng)
        x = apply_step_batch(alg, x, u, rng)
        steps.append(float(u[0]))
        states.append(float(x[0]))
    return WalkPath(tuple(states), alg, float(start), seed, tuple(steps))


def _terminal_walk(alg: ConvolutionAlgebra, step_law: Distribution, paths: int,
                   start: float, seed: int, counts: Callable) -> np.ndarray:
    """Terminal states of `paths` walks from `start`, chunk-seeded.

    Each chunk first draws its step counts, ``counts(rng, width)``; path i
    then makes counts[i] steps.  Every step draws full-width samples, so a
    path's randomness never depends on the other paths' counts.
    """
    out = np.empty(paths)
    for lo, hi, rng in chunk_streams(paths, seed):
        steps = counts(rng, hi - lo)
        x = np.full(hi - lo, float(start))
        for k in range(1, int(steps.max(initial=0)) + 1):
            moved = apply_step_batch(alg, x, step_law.sample(hi - lo, rng), rng)
            x = np.where(k <= steps, moved, x)
        out[lo:hi] = x
    return out


def simulate_terminal(alg: ConvolutionAlgebra, step_law: Distribution, n: int,
                      paths: int, start: float = 0.0, seed: int = 0) -> np.ndarray:
    """Terminal states X_n of `paths` independent walks (chunked, deterministic)."""
    _check_walk(start, n, paths)
    return _terminal_walk(alg, step_law, paths, start, seed, lambda rng, w: np.full(w, n))


def simulate_terminal_generic(alg: ConvolutionAlgebra, step_law: Distribution, n: int,
                              paths: int, start: float = 0.0, seed: int = 0) -> np.ndarray:
    """Terminal states via inverse-CDF sampling of the exact pair laws.

    Deliberately independent of apply_step_batch: each move draws X' from
    delta_X <> delta_u through the pair quantile that
    ``convolve_points(alg, X, u).quantile`` uses, for all paths at once.
    Path i takes its 2n uniforms from default_rng([seed, 7, i]): move k
    draws the step u from uniform 2k and X' from uniform 2k + 1, both kept
    in [1e-16, 1 - 1e-16] as in Distribution.sample.
    """
    _check_walk(start, n, paths)
    draws = np.array([np.random.default_rng([seed, 7, i]).random(2 * n) for i in range(paths)])
    draws = np.clip(draws, 1e-16, 1.0 - 1e-16)
    x = np.full(paths, float(start))
    for k in range(n):
        u = step_law.quantile(draws[:, 2 * k])
        x = _pair_quantile(alg, x, u, draws[:, 2 * k + 1])
    return x
