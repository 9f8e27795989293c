"""Random-walk simulators for the generalized-convolution algebras.

A walk is the Markov chain X_{k+1} ~ delta_{X_k} <> mu.  Four algebras have
exact pathwise recursions (classical, alpha-stable, max, Kendall via its
uniform/Pareto catalyzer pair); the symmetric, Kingman and Kendall-type
algebras use exact mixture representations of the point-mass convolution.
A slow "generic" sampler that draws directly from convolve_points objects
is kept as an independent cross-check of the specialized recursions.

Determinism contract: single paths draw their randomness from a per-step
stream seeded by (seed, step index), so a path restarted from (X_k, seed)
at step offset k reproduces its suffix exactly.  Every batched Monte Carlo
routine splits its paths with chunk_streams into fixed-width chunks with
streams seeded by (seed, chunk index), so results never depend on scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .convolutions import ConvolutionAlgebra, convolve_points
from .convolutions import _kendall_type_lambda1, _kendall_type_lambda2
from .measures import Distribution, ParameterError, _invert_cdf

__all__ = [
    "CHUNK",
    "WalkPath",
    "apply_step_batch",
    "simulate",
    "simulate_terminal",
    "simulate_terminal_generic",
    "simulate_generic_vs_specialized",
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


def simulate(alg: ConvolutionAlgebra, step_law: Distribution, n: int,
             start: float = 0.0, seed: int = 0, first_step: int = 0) -> WalkPath:
    """One walk of n steps from `start`; step k uses the stream (seed, k).

    `first_step` offsets the step indices, so restarting from an intermediate
    state reproduces the remaining path: simulate(..., n - k, start=X_k,
    seed=seed, first_step=k) matches steps k+1 ... n of the original run.
    """
    if n < 0:
        raise ParameterError("n must be >= 0")
    if start < 0:
        raise ParameterError("start must be nonnegative")
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


def simulate_terminal(alg: ConvolutionAlgebra, step_law: Distribution, n: int,
                      paths: int, start: float = 0.0, seed: int = 0) -> np.ndarray:
    """Terminal states X_n of `paths` independent walks (chunked, deterministic)."""
    if n < 0 or paths < 1:
        raise ParameterError("need n >= 0 and paths >= 1")
    out = np.empty(paths)
    for lo, hi, rng in chunk_streams(paths, seed):
        x = np.full(hi - lo, float(start))
        for _ in range(n):
            x = apply_step_batch(alg, x, step_law.sample(hi - lo, rng), rng)
        out[lo:hi] = x
    return out


def simulate_terminal_generic(alg: ConvolutionAlgebra, step_law: Distribution, n: int,
                              paths: int, start: float = 0.0, seed: int = 0) -> np.ndarray:
    """Terminal states via inverse-CDF sampling of convolve_points objects.

    Deliberately independent of apply_step_batch: each move builds the exact
    law delta_x <> delta_u and samples it through its quantile function.
    That costs one closed-form quantile for Kendall and Kingman (Beta
    quantile by ``special.betaincinv``; the fast path draws ``rng.beta``),
    and one bisection of the pair CDF for Kendall-type, which stops at its
    fixed point after about 55 CDF evaluations.  It is a per-path Python
    loop: keep ``paths * n`` small (hundreds to a few thousand moves).
    """
    if n < 0 or paths < 1:
        raise ParameterError("need n >= 0 and paths >= 1")
    out = np.empty(paths)
    for i in range(paths):
        rng = np.random.default_rng([seed, 7, i])
        x = float(start)
        for _ in range(n):
            u = float(step_law.sample(1, rng)[0])
            law = convolve_points(alg, x, u)
            q = min(max(rng.random(), 1e-16), 1.0 - 1e-16)
            x = float(law.quantile(q))
        out[i] = x
    return out


def simulate_generic_vs_specialized(alg: ConvolutionAlgebra, step_law: Distribution,
                                    n: int, paths: int, seed: int = 0) -> float:
    """KS distance between the two samplers' terminal empirical CDFs."""
    if n == 0:
        return 0.0
    fast = simulate_terminal(alg, step_law, n, paths, seed=seed)
    slow = simulate_terminal_generic(alg, step_law, n, paths, seed=seed + 1)
    return float(stats.ks_2samp(fast, slow).statistic)
