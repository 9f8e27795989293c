"""Probability laws on [0, oo) represented as atoms plus an absolutely continuous part.

Every law used by the risk models is of this mixed form, so atom bookkeeping
(e.g. the atom a shifted walk keeps at its starting point) is first-class.
All laws are immutable; samplers are driven by inverse-CDF applied to a
seeded uniform stream, so a (seed, n) pair always reproduces the same draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate

__all__ = [
    "Distribution",
    "ParameterError",
    "UnsupportedLawError",
    "pareto_2alpha",
    "lom_alpha",
    "lom_max",
    "lom_kendall",
    "uniform",
    "point_mass",
    "table",
    "moment_alpha",
    "distribution_from_json",
    "power_transform",
]

#: absolute quadrature tolerance; formulas compared later at 1e-6 need headroom
QUAD_TOL = 1e-10

#: tail segments stop here; a still-decaying rest is summed as a geometric series
MOMENT_TRUNCATION = 1e12


class ParameterError(ValueError):
    """A distribution or algebra parameter is outside its admissible range."""


class UnsupportedLawError(ValueError):
    """The requested operation is not defined for this law (e.g. atoms where a density is required)."""


def _as_array(x):
    return np.asarray(x, dtype=float)


def _check_finite(**params) -> None:
    """Raise ParameterError unless each named number given (not None) is finite."""
    for name, value in params.items():
        if value is not None and not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Distribution:
    """A probability law on [0, oo): atoms + absolutely continuous part.

    ``cdf_fn`` and ``quantile_fn`` are vectorized over numpy arrays.  The
    quantile is the generalized inverse inf{x : F(x) >= q}.  When
    ``quantile_fn`` is None a bisection-based inverse of the CDF is used.
    """

    atoms: tuple[tuple[float, float], ...]
    cdf_fn: Callable[[np.ndarray], np.ndarray]
    quantile_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    density: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support_upper: float = math.inf
    support_lower: float = 0.0
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def cdf(self, x):
        x = _as_array(x)
        out = np.clip(self.cdf_fn(x), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, q):
        q = _as_array(q)
        # written so that NaN fails the test too
        if not np.all((q > 0.0) & (q < 1.0)):
            raise ParameterError("quantile argument must lie in (0, 1)")
        if self.quantile_fn is not None:
            out = self.quantile_fn(q)
        else:
            out = _invert_cdf(self.cdf_fn, q, self.support_lower, self.support_upper)
        out = _as_array(out)
        if q.ndim == 0:
            return float(out.reshape(-1)[0]) if out.ndim else float(out)
        return out.reshape(q.shape)

    def sample(self, n: int, seed: int | np.random.Generator = 0) -> np.ndarray:
        """n i.i.d. draws by inverse-CDF over a seeded uniform stream."""
        if n < 1:
            raise ParameterError("sample size must be >= 1")
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        u = rng.random(n)
        # keep u away from the open-interval endpoints
        u = np.clip(u, 1e-16, 1.0 - 1e-16)
        return np.atleast_1d(self.quantile(u))

    def mean(self) -> float:
        return moment_alpha(self, 1.0)

    @property
    def atom_mass(self) -> float:
        return float(sum(m for _, m in self.atoms))

    def total_mass(self) -> float:
        """Atom masses plus the integral of the density (should be 1)."""
        return self.expect(lambda x: 1.0)

    def expect(self, g: Callable[[float], float], upper: float = math.inf) -> float:
        """E g(X): the sum of m g(loc) over the atoms plus the quadrature of
        g f over the density's support.

        ``upper`` is a point above which g vanishes; the quadrature stops there.
        """
        total = 0.0
        for loc, m in self.atoms:
            total += m * g(loc)
        hi = min(upper, self.support_upper)
        if self.density is not None and hi > self.support_lower:
            val, _ = integrate.quad(lambda x: g(x) * float(self.density(np.array([x]))[0]),
                                    self.support_lower, hi, epsabs=QUAD_TOL, limit=400)
            total += val
        return total


def _invert_cdf(cdf_fn, q, lo, hi, iters: int = 200):
    """Generalized inverse of a CDF by bisection, vectorized over q.

    ``iters`` caps the bisection steps.  The loop stops early once a step
    leaves both bracket arrays unchanged bit for bit: a step is a
    deterministic map of (lo, hi), so every later step would be a no-op and
    the result is identical to running all ``iters`` steps.  On a bracket
    [1, 2^k] that fixed point comes after about 55 steps.
    """
    q = np.atleast_1d(_as_array(q))
    lo_arr = np.full_like(q, lo)
    if math.isfinite(hi):
        hi_arr = np.full_like(q, hi)
    else:
        hi_arr = np.maximum(lo + 1.0, 1.0) * np.ones_like(q)
        # expand the bracket until cdf(hi) >= q everywhere
        for _ in range(200):
            bad = cdf_fn(hi_arr) < q
            if not np.any(bad):
                break
            hi_arr[bad] *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo_arr + hi_arr)
        below = cdf_fn(mid) < q
        new_lo = np.where(below, mid, lo_arr)
        new_hi = np.where(below, hi_arr, mid)
        # compared as bytes: -0.0 and 0.0 differ, equal NaNs match
        if new_hi.tobytes() == hi_arr.tobytes() and new_lo.tobytes() == lo_arr.tobytes():
            break
        lo_arr, hi_arr = new_lo, new_hi
    return hi_arr


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

def pareto_2alpha(alpha: float) -> Distribution:
    """Pareto law on [1, oo) with density 2a x^(-2a-1); tail index 2a."""
    _check_finite(alpha=alpha)
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    a2 = 2.0 * alpha

    def cdf(x):
        x = _as_array(x)
        return np.where(x < 1.0, 0.0, 1.0 - np.power(np.maximum(x, 1.0), -a2))

    def quantile(q):
        return np.power(1.0 - _as_array(q), -1.0 / a2)

    def density(x):
        x = _as_array(x)
        return np.where(x < 1.0, 0.0, a2 * np.power(np.maximum(x, 1.0), -a2 - 1.0))

    return Distribution((), cdf, quantile, density, math.inf, 1.0,
                        family="pareto2a", params={"alpha": alpha})


def lom_alpha(gamma: float, alpha: float) -> Distribution:
    """Weibull-type law F(x) = 1 - exp(-gamma x^alpha).

    Plays the exponential's role (lack of memory) for the alpha-stable algebra.
    """
    _check_finite(gamma=gamma, alpha=alpha)
    if gamma <= 0 or alpha <= 0:
        raise ParameterError("gamma and alpha must be positive")

    def cdf(x):
        x = _as_array(x)
        return -np.expm1(-gamma * np.power(np.maximum(x, 0.0), alpha))

    def quantile(q):
        return np.power(-np.log1p(-_as_array(q)) / gamma, 1.0 / alpha)

    def density(x):
        x = _as_array(x)
        xs = np.maximum(x, 0.0)
        return gamma * alpha * np.power(xs, alpha - 1.0) * np.exp(-gamma * xs**alpha)

    return Distribution((), cdf, quantile, density, math.inf, 0.0,
                        family="lom_alpha", params={"gamma": gamma, "alpha": alpha})


def point_mass(a: float) -> Distribution:
    """The degenerate law delta_a."""
    _check_finite(a=a)
    if a < 0:
        raise ParameterError("point mass location must be nonnegative")

    def cdf(x):
        return np.where(_as_array(x) >= a, 1.0, 0.0)

    def quantile(q):
        return np.full_like(_as_array(q), a)

    return Distribution(((a, 1.0),), cdf, quantile, None, a, a,
                        family="point", params={"a": a})


def lom_max(a: float) -> Distribution:
    """Lack-of-memory law for the max algebra: the point mass delta_a, a > 0."""
    if a <= 0:
        raise ParameterError("a must be positive")
    d = point_mass(a)
    return Distribution(d.atoms, d.cdf_fn, d.quantile_fn, None, a, a,
                        family="lom_max", params={"a": a})


def lom_kendall(c: float, alpha: float) -> Distribution:
    """Lack-of-memory law for the Kendall algebra: F(x) = min{(cx)^alpha, 1}."""
    _check_finite(c=c, alpha=alpha)
    if c <= 0 or alpha <= 0:
        raise ParameterError("c and alpha must be positive")
    upper = 1.0 / c

    def cdf(x):
        x = _as_array(x)
        return np.minimum(np.power(c * np.maximum(x, 0.0), alpha), 1.0)

    def quantile(q):
        return np.power(_as_array(q), 1.0 / alpha) / c

    def density(x):
        x = _as_array(x)
        inside = (x > 0.0) & (x < upper)
        xs = np.where(inside, x, 1.0)
        return np.where(inside, alpha * c**alpha * np.power(xs, alpha - 1.0), 0.0)

    return Distribution((), cdf, quantile, density, upper, 0.0,
                        family="lom_kendall", params={"c": c, "alpha": alpha})


def uniform(a: float, b: float) -> Distribution:
    """Uniform law on (a, b), 0 <= a < b."""
    _check_finite(a=a, b=b)
    if not (0 <= a < b):
        raise ParameterError("need 0 <= a < b")
    width = b - a

    def cdf(x):
        return np.clip((_as_array(x) - a) / width, 0.0, 1.0)

    def quantile(q):
        return a + width * _as_array(q)

    def density(x):
        x = _as_array(x)
        return np.where((x > a) & (x < b), 1.0 / width, 0.0)

    return Distribution((), cdf, quantile, density, b, a,
                        family="uniform", params={"a": a, "b": b})


def table(atoms: Sequence[tuple[float, float]],
          cdf_points: Sequence[tuple[float, float]] = ()) -> Distribution:
    """User-supplied law: explicit atoms plus a piecewise-linear continuous CDF.

    ``cdf_points`` lists (x, C(x)) for the continuous part only; C must be
    nondecreasing from C = 0 (a jump belongs in ``atoms``).  Its density is
    the piecewise-constant slope of C.  Total mass (atoms + continuous) must
    be 1 within 1e-10.
    """
    atoms = tuple((float(x), float(m)) for x, m in atoms)
    if any(x < 0 or m < 0 for x, m in atoms):
        raise ParameterError("atoms need nonnegative locations and masses")
    xs = np.array([p[0] for p in cdf_points], dtype=float)
    cs = np.array([p[1] for p in cdf_points], dtype=float)
    for x, v in (*atoms, *zip(xs, cs)):
        _check_finite(table_point=x, table_value=v)
    if np.any(xs < 0):
        raise ParameterError("cdf_points need nonnegative x; the law lives on [0, oo)")
    if xs.size:
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(cs) < 0):
            raise ParameterError("cdf_points must be strictly increasing in x and nondecreasing in C")
        if cs[0] != 0.0:
            raise ParameterError("cdf_points must start at C = 0; a jump belongs in atoms")
        cont_mass = float(cs[-1])
    else:
        cont_mass = 0.0
    total = sum(m for _, m in atoms) + cont_mass
    if abs(total - 1.0) > 1e-10:
        raise ParameterError(f"total mass is {total}, expected 1")

    locs = np.array([x for x, _ in atoms])
    masses = np.array([m for _, m in atoms])

    def cdf(x):
        x = _as_array(x)
        out = np.zeros_like(x)
        if xs.size:
            out = out + np.interp(x, xs, cs, left=0.0, right=cont_mass)
        for loc, m in zip(locs, masses):
            out = out + m * (x >= loc)
        return out

    density = None
    if cont_mass > 0.0:
        slopes = np.diff(cs) / np.diff(xs)

        def density(x):
            x = _as_array(x)
            i = np.clip(np.searchsorted(xs, x) - 1, 0, slopes.size - 1)
            return np.where((x > xs[0]) & (x < xs[-1]), slopes[i], 0.0)

    hi = max([x for x, _ in atoms] + ([float(xs[-1])] if xs.size else [0.0]))
    lo = min([x for x, _ in atoms] + ([float(xs[0])] if xs.size else [hi]))
    return Distribution(atoms, cdf, None, density, hi, lo, family="table", params={})


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def moment_alpha(d: Distribution, alpha: float) -> float:
    """E X^alpha via the tail integral of alpha x^(alpha-1)(1 - F(x)).

    Returns math.inf when the tail's doubling segments stop shrinking by a
    ratio of at most 0.95; an infinite moment is a value, not an error.
    """
    if alpha <= 0:
        raise ParameterError("alpha must be positive")

    def integrand(x):
        return alpha * x ** (alpha - 1.0) * (1.0 - d.cdf(x))

    breakpoints = {0.0, d.support_lower, *[loc for loc, _ in d.atoms]}
    bounded = math.isfinite(d.support_upper)
    head_end = d.support_upper if bounded else max(1.0, *breakpoints)
    pts = sorted({*breakpoints, head_end})
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if b > a:
            val, _ = integrate.quad(integrand, a, b, epsabs=QUAD_TOL, limit=200)
            total += val
    if bounded:
        return total
    # geometric tail segments; declare divergence when contributions stall
    a = head_end
    prev = math.inf
    ratio = 1.0
    while a < MOMENT_TRUNCATION:
        b = a * 2.0
        val, _ = integrate.quad(integrand, a, b, epsabs=QUAD_TOL, limit=200)
        total += val
        if val < 1e-13 * max(total, 1.0):
            return total
        if val > 0.95 * prev and b > 1e6 and val > 1e-9 * max(total, 1.0):
            # segment contributions have stopped decaying: tail is too heavy
            return math.inf
        ratio = val / prev if math.isfinite(prev) and prev > 0 else 1.0
        prev = val
        a = b
    # truncated at the bound: a tail still decaying geometrically adds the
    # rest of its series, prev * ratio / (1 - ratio)
    if ratio <= 0.95:
        return total + prev * ratio / (1.0 - ratio)
    return math.inf


def power_transform(d: Distribution, alpha: float) -> Distribution:
    """Law of X^alpha when X ~ d (used to move the alpha-model to its z-scale).

    A density f of d becomes f(z^(1/a)) z^(1/a - 1) / a, zero at and below
    the new support's lower end.
    """
    _check_finite(alpha=alpha)
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    inv = 1.0 / alpha
    lower = d.support_lower**alpha

    def cdf(z):
        z = _as_array(z)
        return d.cdf(np.power(np.maximum(z, 0.0), inv))

    def quantile(q):
        base = d.quantile(q)
        return np.power(_as_array(base), alpha)

    density = None
    if d.density is not None:
        def density(z):
            z = _as_array(z)
            out = np.zeros(z.shape)
            on = z > lower
            zon = z[on]
            out[on] = d.density(np.power(zon, inv)) * np.power(zon, inv - 1.0) / alpha
            return out

    atoms = tuple((loc**alpha, m) for loc, m in d.atoms)
    return Distribution(atoms, cdf, quantile, density, d.support_upper**alpha, lower,
                        family="power", params={"base": d.family, "alpha": alpha})


_FAMILIES = {
    "pareto2a": lambda p: pareto_2alpha(p["alpha"]),
    "lom_alpha": lambda p: lom_alpha(p["gamma"], p["alpha"]),
    "lom_max": lambda p: lom_max(p["a"]),
    "lom_kendall": lambda p: lom_kendall(p["c"], p["alpha"]),
    "uniform": lambda p: uniform(p["a"], p["b"]),
    "point": lambda p: point_mass(p["a"]),
    "table": lambda p: table(p.get("atoms", ()), p.get("cdf_points", ())),
}


def distribution_from_json(obj: dict) -> Distribution:
    """Build a law from {"family": ..., params...}."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise ParameterError("law descriptor must be an object with a 'family' key")
    fam = obj["family"]
    if fam not in _FAMILIES:
        raise ParameterError(f"unknown family {fam!r}; expected one of {sorted(_FAMILIES)}")
    params = {k: v for k, v in obj.items() if k != "family"}
    try:
        return _FAMILIES[fam](params)
    except KeyError as exc:
        raise ParameterError(f"family {fam!r} is missing parameter {exc}") from exc
