"""Random-walk simulators for the generalized-convolution algebras.

A walk is the Markov chain X_{k+1} ~ delta_{X_k} <> mu.  Four algebras have
exact pathwise recursions (classical, alpha-stable, max, Kendall via its
uniform/Pareto catalyzer pair); the symmetric, Kingman and Kendall-type
algebras use exact mixture representations of the point-mass convolution.
A "generic" sampler that inverts the exact point-mass convolution laws
(the quantile of convolve_points) is kept as an independent cross-check of
the specialized recursions.

Determinism contract: every batched Monte Carlo routine is one function of a
chunk, run by map_chunks over fixed-width chunks seeded by (seed, chunk
index), so results never depend on scheduling, and simulate_paths records
the very walks whose last states simulate_terminal returns.  A chunk wider
than CHUNK is walked in row blocks whose draws are the block's rows of the
chunk's own draws, so the results are the same bits.  The
alpha-model fast path runs its chunks on a standard-library thread pool of up
to one thread per CPU the process may use; each chunk still draws from its own
stream and the results are concatenated in chunk order, so they do not depend
on the thread count.
"""

from __future__ import annotations

import os
from collections.abc import Callable

import numpy as np

from .convolutions import ConvolutionAlgebra, _pair_quantile
from .convolutions import _kendall_type_lambda1, _kendall_type_lambda2
from .measures import Distribution, ParameterError, _check_integer, _check_nonnegative, _invert_cdf

__all__ = [
    "CHUNK",
    "apply_step_batch",
    "simulate_paths",
    "simulate_terminal",
    "simulate_terminal_generic",
]

#: fixed batch width; the chunk partition depends only on the path count
CHUNK = 16384


def map_chunks(fn: Callable, paths: int, seed: int, width: int = CHUNK, key: tuple = (),
               scratch: Callable | None = None):
    """Concatenate fn(lo, hi, rng), one value or row per path, over the chunks of `width`
    paths in order.

    Chunk ci draws from default_rng([seed, *key, ci]); `key` separates
    streams that share a seed.  A chunk wider than CHUNK runs fn on its row
    blocks of at most CHUNK paths, each with a _RowView of the chunk's
    stream, so fn must draw only rng.random(hi - lo) and give each path a
    value that depends on its own rows of those draws alone.

    With `scratch`, the chunks run on up to one worker per CPU this process
    may use, at most one per chunk: a ThreadPoolExecutor that hands them out
    in order, or the calling thread alone when there is one worker.  The
    calling thread first makes one scratch() per worker and puts them in a
    queue; each chunk takes one, calls fn(lo, hi, rng, mem) with it and puts
    it back, so no two running chunks share one.  fn must then release the
    GIL for its long calls to gain anything.  An exception in any chunk is
    raised here.
    """
    _check_integer(seed=seed)
    _check_nonnegative(seed=seed)
    starts = range(0, paths, width)

    def chunk(ci: int, f: Callable) -> list:
        lo = starts[ci]
        return _row_blocks(f, lo, min(lo + width, paths), np.random.default_rng([seed, *key, ci]))

    if scratch is None:
        blocks = [chunk(ci, fn) for ci in range(len(starts))]
    else:
        from concurrent.futures import ThreadPoolExecutor
        from queue import SimpleQueue

        workers = min(len(os.sched_getaffinity(0)), len(starts))
        mems = SimpleQueue()
        for _ in range(workers):
            mems.put(scratch())

        def pooled(ci: int) -> list:
            mem = mems.get()  # never waits: at most `workers` chunks run at once
            try:
                return chunk(ci, lambda lo, hi, rng: fn(lo, hi, rng, mem))
            finally:
                mems.put(mem)

        if workers > 1:
            with ThreadPoolExecutor(workers) as pool:
                blocks = list(pool.map(pooled, range(len(starts))))
        else:
            blocks = [pooled(ci) for ci in range(len(starts))]
    return np.concatenate([out for outs in blocks for out in outs])


def _row_blocks(fn: Callable, lo: int, hi: int, rng: np.random.Generator) -> list:
    """fn on the chunk [lo, hi): whole if at most CHUNK wide, else block by block."""
    if hi - lo <= CHUNK:
        return [fn(lo, hi, rng)]
    state = rng.bit_generator.state
    out = []
    for b in range(lo, hi, CHUNK):
        rng.bit_generator.state = state
        out.append(fn(b, min(b + CHUNK, hi), _RowView(rng, hi - lo, b - lo, min(CHUNK, hi - b))))
    return out


class _RowView:
    """Rows [b, b + n) of a chunk's stream, for the block of a wide chunk.

    The k-th random(n) returns rows [b, b + n) of the chunk's k-th
    random(width): the PCG64 stream skips the b rows before the block and
    the width - b - n rows after it, in O(log width) each.  No other draw
    has a row-wise equivalent, so any other size or method raises.
    """

    __slots__ = ("_rng", "_width", "_b", "_n")

    def __init__(self, rng: np.random.Generator, width: int, b: int, n: int):
        self._rng, self._width, self._b, self._n = rng, width, b, n

    def random(self, size=None) -> np.ndarray:
        if size != self._n:
            raise ParameterError(f"a row block of {self._n} paths draws random({self._n}), "
                                 f"got random({size})")
        bits = self._rng.bit_generator
        bits.advance(self._b)
        out = self._rng.random(size)
        bits.advance(self._width - self._b - size)
        return out

    def __getattr__(self, name):
        raise ParameterError(f"a row block of {self._n} paths draws random({self._n}) only, "
                             f"not {name}")


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
        # M * pi with pi = (1 - v)^(-1/(2a)) a Pareto(2a) catalyzer draw >= 1.
        # Both uniforms are drawn for every path; pi is computed only on the
        # rows that jump.  A NaN ratio, 0/0 at x = u = 0 or inf/inf, keeps M:
        # 0 stays 0 even where pi overflows, and inf * pi would be inf anyway.
        a = alg.alpha
        xi = rng.random(n)
        v = rng.random(n)
        big = np.maximum(x, u, dtype=float)
        rho = np.minimum(x, u, dtype=float)
        with np.errstate(invalid="ignore"):
            np.divide(rho, big, out=rho)
        np.power(rho, a, out=rho)
        jump = np.flatnonzero(xi < rho)
        pi = v[jump]
        np.subtract(1.0, pi, out=pi)
        np.power(pi, -1.0 / (2.0 * a), out=pi)
        big[jump] *= pi
        return big
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


def _check_walk(start: float, n: int = 0, paths: int = 1, seed: int | None = None) -> None:
    """The one input check of every walk entry point.

    A walk that draws through map_chunks leaves ``seed`` to it.
    """
    _check_integer(n=n, paths=paths)
    if seed is not None:
        _check_integer(seed=seed)
    if n < 0:
        raise ParameterError("n must be >= 0")
    if paths < 1:
        raise ParameterError("paths must be >= 1")
    _check_nonnegative(start=start, seed=seed)


#: the largest mean numpy's Generator.poisson accepts
_POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max))


def _check_poisson_mean(mean: float) -> None:
    """Reject a claim-count mean that rng.poisson cannot draw from."""
    if not mean <= _POISSON_MEAN_MAX:
        raise ParameterError(f"lam * t = {mean} exceeds the Poisson sampler's range "
                             f"({_POISSON_MEAN_MAX:.6g})")


def _terminal_walk(alg: ConvolutionAlgebra, step_law: Distribution, paths: int,
                   start: float, seed: int, counts: Callable, record: bool = False) -> np.ndarray:
    """Terminal states of `paths` walks from `start`, chunk-seeded.

    Each chunk first draws its step counts, ``counts(rng, width)``; path i
    then makes counts[i] steps.  Every step draws full-width samples, so a
    path's randomness never depends on the other paths' counts.  With
    `record`, each path's row holds its state after every step instead.
    """
    def walk(lo, hi, rng):
        steps = counts(rng, hi - lo)
        x = np.full(hi - lo, float(start))
        kept = [x.copy()] if record else None
        for k in range(1, int(steps.max(initial=0)) + 1):
            moved = apply_step_batch(alg, x, step_law.sample(hi - lo, rng), rng)
            np.copyto(x, moved, where=k <= steps)
            if record:
                kept.append(x.copy())
        return np.stack(kept, axis=1) if record else x

    return map_chunks(walk, paths, seed)


def simulate_paths(alg: ConvolutionAlgebra, step_law: Distribution, n: int,
                   paths: int, start: float = 0.0, seed: int = 0) -> np.ndarray:
    """States X_0 ... X_n of `paths` walks, one row per path; the last column
    is simulate_terminal's result for the same arguments, bit for bit."""
    _check_walk(start, n, paths)
    return _terminal_walk(alg, step_law, paths, start, seed, lambda rng, w: np.full(w, n),
                         record=True)


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
    _check_walk(start, n, paths, seed)
    draws = np.array([np.random.default_rng([seed, 7, i]).random(2 * n) for i in range(paths)])
    draws = np.clip(draws, 1e-16, 1.0 - 1e-16)
    x = np.full(paths, float(start))
    for k in range(n):
        u = step_law.quantile(draws[:, 2 * k])
        x = _pair_quantile(alg, x, u, draws[:, 2 * k + 1])
    return x
