"""Probability laws on [0, oo) represented as atoms plus an absolutely continuous part.

Every law used by the risk models is of this mixed form, so atom bookkeeping
(e.g. the atom a shifted walk keeps at its starting point) is first-class.
All laws are immutable; samplers are driven by inverse-CDF applied to a
seeded uniform stream, so a (seed, n) pair always reproduces the same draws.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

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

#: doubling tail segments of a law with no declared tail index stop here
MOMENT_TRUNCATION = 1e12


class ParameterError(ValueError):
    """An input is outside its admissible range or malformed: a distribution,
    algebra or run parameter, or a configuration that does not parse."""


class UnsupportedLawError(ValueError):
    """The requested operation is not defined for this law (e.g. atoms where a density is required)."""


def _as_array(x):
    return np.asarray(x, dtype=float)


def _quad(f: Callable[[float], float], a: float, b: float, **quad_kwargs) -> tuple[float, float]:
    """(value, abserr) of the integral of f over [a, b] by ``scipy.integrate.quad``,
    called with exactly ``quad_kwargs``: the one place the package integrates.

    scipy.integrate is imported here, on the first call, not with the package;
    every later call finds it in ``sys.modules``.
    """
    from scipy import integrate

    return integrate.quad(f, a, b, **quad_kwargs)


def _check_finite(**params) -> None:
    """Raise ParameterError unless each named number given (not None) is finite."""
    for name, value in params.items():
        # a comparison, not math.isfinite, so that an int seed of any size passes
        if value is not None and not -math.inf < value < math.inf:
            raise ParameterError(f"{name} must be finite, got {value}")


def _check_nonnegative(**params) -> None:
    """Raise ParameterError unless each named number given (not None) is finite and >= 0."""
    _check_finite(**params)
    for name, value in params.items():
        if value is not None and value < 0:
            raise ParameterError(f"{name} must be nonnegative, got {value}")


def _check_positive(**params) -> None:
    """Raise ParameterError unless each named number given (not None) is finite and > 0."""
    _check_finite(**params)
    for name, value in params.items():
        if value is not None and value <= 0:
            raise ParameterError(f"{name} must be positive, got {value}")


def _check_integer(**params) -> None:
    """Raise ParameterError unless each named value is an integer.

    Run sizes (path, step and claim counts) size arrays and ranges, so every
    float is rejected, an integral one too, and with it NaN and inf.
    """
    for name, value in params.items():
        try:
            operator.index(value)
        except TypeError:
            raise ParameterError(f"{name} must be an integer, got {value}") from None


@dataclass(frozen=True)
class Distribution:
    """A probability law on [0, oo): atoms + absolutely continuous part.

    ``cdf_fn`` and ``quantile_fn`` are vectorized over numpy arrays.  The
    quantile is the generalized inverse inf{x : F(x) >= q}.  When
    ``quantile_fn`` is None a bisection-based inverse of the CDF is used.

    ``sf_fn`` is an optional closed-form survival function 1 - F, exact far
    in a heavy tail where 1 - cdf(x) cancels.  ``tail_index`` is the index k
    of a regularly varying tail, sf(x) ~ x^(-k), so that E X^a is finite
    exactly when a < k; the default inf declares no heavy tail.  ``knots``
    are points where the density jumps, such as the ends of the linear
    pieces of a ``table`` law's CDF; the max-model quadratures cut there.
    """

    atoms: tuple[tuple[float, float], ...]
    cdf_fn: Callable[[np.ndarray], np.ndarray]
    quantile_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    density: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support_upper: float = math.inf
    support_lower: float = 0.0
    family: str = "custom"
    params: dict = field(default_factory=dict)
    sf_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    tail_index: float = math.inf
    knots: tuple[float, ...] = ()

    def cdf(self, x):
        x = _as_array(x)
        out = np.clip(self.cdf_fn(x), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def sf(self, x):
        """P(X > x): ``sf_fn`` where the law declares one, else 1 - cdf(x)."""
        if self.sf_fn is None:
            return 1.0 - self.cdf(x)
        out = np.clip(self.sf_fn(_as_array(x)), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, q):
        q = _as_array(q)
        # written so that NaN fails the test too
        if not np.all((q > 0.0) & (q < 1.0)):
            raise ParameterError("quantile argument must lie in (0, 1)")
        out = self._quantile_in_range(q)
        if q.ndim == 0:
            return float(out.reshape(-1)[0]) if out.ndim else float(out)
        return out.reshape(q.shape)

    def _quantile_in_range(self, q: np.ndarray) -> np.ndarray:
        """The quantile at q already known to lie in (0, 1), unchecked and unshaped."""
        if self.quantile_fn is not None:
            return _as_array(self.quantile_fn(q))
        return _as_array(_invert_cdf(self.cdf_fn, q, self.support_lower, self.support_upper))

    def sample(self, n: int, seed: int | np.random.Generator = 0) -> np.ndarray:
        """n i.i.d. draws by inverse-CDF over a seeded uniform stream.

        ``seed`` is an integer or a stream to draw from: a numpy Generator or
        the row view that a block of a wide Monte Carlo chunk gets.
        """
        _check_integer(n=n)
        if n < 1:
            raise ParameterError("sample size must be >= 1")
        if hasattr(type(seed), "random"):
            rng = seed
        else:
            _check_integer(seed=seed)
            _check_nonnegative(seed=seed)
            rng = np.random.default_rng(seed)
        u = rng.random(n)
        # keep u away from the open-interval endpoints
        np.clip(u, 1e-16, 1.0 - 1e-16, out=u)
        return self._quantile_in_range(u).reshape(u.shape)

    def mean(self) -> float:
        return moment_alpha(self, 1.0)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """The lower end of the support and the atom locations, in order:
        the points where a quadrature against the law meets a kink or a jump."""
        return tuple(sorted({self.support_lower, *(loc for loc, _ in self.atoms)}))

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
        if math.isnan(upper):
            raise ParameterError("upper must be a number, got nan")
        total = 0.0
        for loc, m in self.atoms:
            total += m * g(loc)
        hi = min(upper, self.support_upper)
        if self.density is not None and hi > self.support_lower:
            val, _ = _quad(lambda x: g(x) * float(self.density(np.array([x]))[0]),
                           self.support_lower, hi, epsabs=QUAD_TOL, limit=400)
            total += val
        return total


def _invert_cdf(cdf_fn, q, lo, hi):
    """Generalized inverse of a CDF by bisection, vectorized over q.

    The bisection takes at most 200 steps.  The loop stops early once a step
    leaves both bracket arrays unchanged bit for bit: a step is a
    deterministic map of (lo, hi), so every later step would be a no-op and
    the result is identical to running all 200 steps.  On a bracket
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
    for _ in range(200):
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
    _check_positive(alpha=alpha)
    a2 = 2.0 * alpha

    def sf(x):
        return np.power(np.maximum(_as_array(x), 1.0), -a2)

    def cdf(x):
        return 1.0 - sf(x)

    def quantile(q):
        return np.power(1.0 - _as_array(q), -1.0 / a2)

    def density(x):
        x = _as_array(x)
        return np.where(x < 1.0, 0.0, a2 * np.power(np.maximum(x, 1.0), -a2 - 1.0))

    return Distribution((), cdf, quantile, density, math.inf, 1.0,
                        family="pareto2a", params={"alpha": alpha},
                        sf_fn=sf, tail_index=a2)


def lom_alpha(gamma: float, alpha: float) -> Distribution:
    """Weibull-type law F(x) = 1 - exp(-gamma x^alpha).

    Plays the exponential's role (lack of memory) for the alpha-stable algebra.
    """
    _check_positive(gamma=gamma, alpha=alpha)

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
    _check_nonnegative(a=a)

    def cdf(x):
        return np.where(_as_array(x) >= a, 1.0, 0.0)

    def quantile(q):
        return np.full_like(_as_array(q), a)

    return Distribution(((a, 1.0),), cdf, quantile, None, a, a,
                        family="point", params={"a": a})


def lom_max(a: float) -> Distribution:
    """Lack-of-memory law for the max algebra: the point mass delta_a, a > 0."""
    _check_positive(a=a)
    return replace(point_mass(a), family="lom_max")


def lom_kendall(c: float, alpha: float) -> Distribution:
    """Lack-of-memory law for the Kendall algebra: F(x) = min{(cx)^alpha, 1}."""
    _check_positive(c=c, alpha=alpha)
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
    the piecewise-constant slope of C, which jumps at the knots x, kept as
    the law's ``knots``.  Total mass (atoms + continuous) must be 1 within 1e-10.
    """
    atoms = tuple((float(x), float(m)) for x, m in atoms)
    xs = np.array([p[0] for p in cdf_points], dtype=float)
    cs = np.array([p[1] for p in cdf_points], dtype=float)
    for x, v in (*atoms, *zip(xs, cs)):
        _check_nonnegative(table_point=x, table_value=v)
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

    # the supremum is the last point carrying mass: zero-mass atoms and a flat
    # end of the continuous part lie above every draw
    tops = [x for x, m in atoms if m > 0]
    if cont_mass > 0.0:
        tops.append(float(xs[np.argmax(cs == cont_mass)]))
    hi = max(tops)
    lo = min([x for x, _ in atoms] + ([float(xs[0])] if xs.size else [hi]))
    return Distribution(atoms, cdf, None, density, hi, lo, family="table",
                        knots=tuple(xs.tolist()))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def moment_alpha(d: Distribution, alpha: float) -> float:
    """E X^alpha via the tail integral of alpha x^(alpha-1) sf(x).

    An infinite moment is a value, not an error.  A law that declares a
    finite ``tail_index`` k is decided exactly: alpha >= k gives math.inf,
    and below it the moment is integrated from the law's survival function
    (``_sf_moment``).  Other unbounded laws sum doubling segments of sf(x)
    until one is negligible; a tail still not negligible at
    MOMENT_TRUNCATION raises UnsupportedLawError, since only a declared
    tail index decides that a moment diverges.
    """
    _check_positive(alpha=alpha)
    if alpha >= d.tail_index:
        return math.inf

    breakpoints = sorted({0.0, *d.breakpoints})
    if math.isfinite(d.tail_index):
        return _sf_moment(d, alpha, breakpoints)
    bounded = math.isfinite(d.support_upper)
    head_end = d.support_upper if bounded else max(1.0, breakpoints[-1])
    pts = sorted({*breakpoints, head_end})

    def integrand(x):
        return alpha * x ** (alpha - 1.0) * d.sf(x)

    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if b > a:
            val, _ = _quad(integrand, a, b, epsabs=QUAD_TOL, limit=200)
            total += val
    if bounded:
        return total
    a = head_end
    while a < MOMENT_TRUNCATION:
        val, _ = _quad(integrand, a, 2.0 * a, epsabs=QUAD_TOL, limit=200)
        total += val
        if val < 1e-13 * max(total, 1.0):
            return total
        a *= 2.0
    raise UnsupportedLawError(
        f"the tail of this {d.family!r} law is not negligible by {MOMENT_TRUNCATION:g}; "
        "declare its tail_index (and sf_fn) to decide E X^alpha")


def _sf_moment(d: Distribution, alpha: float, cuts: list[float]) -> float:
    """E X^alpha from the survival function of a law with tail index k > alpha.

    ``cuts`` are 0, the lower end of the support and the atoms, in order.
    Up to the last cut h (1 if every cut is 0) the moment is
    int_0^(h^alpha) S(y) dy with S(y) = sf(y^(1/alpha)) = P(X^alpha > y),
    split at the cuts taken to the power alpha; S is bounded and smooth
    between them.  Past h the substitution x = h v^(-1/g), g = k - alpha,
    writes the tail int_h^oo alpha x^(alpha-1) sf(x) dx as
    (alpha h^alpha / g) int_0^1 sf(x) v^(-k/g) dv, whose integrand is
    constant where sf is an exact power x^(-k) and slowly varying where sf
    varies regularly.  Below v0, where x passes X = h 10^(30 / max(k, 1)),
    the integrand is taken as constant, so the tail past X is
    alpha X^alpha sf(X) / g.  No value evaluated overflows, even for alpha
    within 0.1% of k, although most of the mass then lies past 1e300.
    """
    if cuts[-1] == 0.0:
        cuts = [0.0, 1.0]
    inv = 1.0 / alpha

    def head(y):
        return float(d.sf(y ** inv))

    ys = [c ** alpha for c in cuts]
    total = 0.0
    for a, b in zip(ys[:-1], ys[1:]):
        val, _ = _quad(head, a, b, epsabs=0.0, epsrel=1e-13, limit=200)
        total += val
    h, k = cuts[-1], d.tail_index
    g = k - alpha

    def tail(v):
        return float(d.sf(h * v ** (-1.0 / g))) * v ** (-k / g)

    v0 = 10.0 ** (-30.0 * g / max(k, 1.0))
    val, _ = _quad(tail, v0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return total + alpha * h**alpha / g * (val + v0 * tail(v0))


def _image(d: Distribution, fwd, inv, jac, scale: float, tail_index: float,
           family: str, params: dict) -> Distribution:
    """Law of fwd(X) when X ~ d, fwd increasing with inverse inv: the one
    builder of a transformed law.  Atoms, knots and support ends move to
    fwd(p) and the quantile is fwd of d's, fwd applying ``*`` or ``**``.
    The density is d's at inv(x) times jac(x) / scale = inv'(x), 0 at and
    below the new lower end.  The CDF and sf are d's at inv(x), held to the
    side of each atom and knot p that x is on of fwd(p), and to p at fwd(p),
    since inv(fwd(p)) need not round back to p.
    """
    lower = fwd(d.support_lower)
    marks = sorted({*(loc for loc, _ in d.atoms), *d.knots})
    moved = np.array([np.nan, *(fwd(p) for p in marks)])
    floor, ceil = np.array([-np.inf, *marks]), np.append(np.nextafter(marks, -np.inf), np.inf)

    def pull(x):
        x = _as_array(x)
        if not marks:
            return inv(x)
        i = np.searchsorted(moved[1:], x, side="right")  # the marks p with fwd(p) <= x
        lo = floor[i]
        return np.minimum(np.maximum(inv(x), lo), np.where(moved[i] == x, lo, ceil[i]))

    def cdf(x):
        return d.cdf_fn(pull(x))

    def quantile(q):
        return fwd(d._quantile_in_range(q))

    density = None
    if d.density is not None:
        def density(x):
            x = _as_array(x)
            out = np.zeros(x.shape)
            on = x > lower
            out[on] = d.density(inv(x[on])) * jac(x[on]) / scale
            return out

    sf = None
    if d.sf_fn is not None:
        def sf(x):
            return d.sf_fn(pull(x))

    return Distribution(tuple((fwd(loc), m) for loc, m in d.atoms), cdf, quantile, density,
                        fwd(d.support_upper), lower, family=family, params=params,
                        sf_fn=sf, tail_index=tail_index, knots=tuple(fwd(k) for k in d.knots))


def power_transform(d: Distribution, alpha: float) -> Distribution:
    """Law of X^alpha when X ~ d, the alpha-model's z-scale: the ``_image`` of d under x^alpha."""
    _check_positive(alpha=alpha)
    return _image(d, lambda x: x**alpha, lambda z: np.power(np.maximum(z, 0.0), 1.0 / alpha),
                  lambda z: np.power(z, 1.0 / alpha - 1.0), alpha, d.tail_index / alpha,
                  "power", {"base": d.family, "alpha": alpha})


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
