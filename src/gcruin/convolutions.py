"""Generalized-convolution algebras: kernels, point-mass convolution and dilation.

Each algebra is described by a kernel Omega with Omega(0) = 1; the generalized
characteristic function of a law d is t -> integral of Omega(x t) d(dx), and
it is multiplicative under the algebra's convolution.  The point-mass
convolution delta_x <> delta_y is returned as an explicit Distribution
(atoms + continuous part); laws with x != y are reduced to the unit case via
scale homogeneity and dilated back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measures import (
    Distribution,
    ParameterError,
    QUAD_TOL,
    _as_array,
    _check_finite,
    _check_nonnegative,
    _check_positive,
    _image,
    _invert_cdf,
    _quad,
    point_mass,
)

__all__ = [
    "ConvolutionAlgebra",
    "classical",
    "symmetric",
    "alpha_stable",
    "max_algebra",
    "kendall",
    "kingman",
    "kendall_type",
    "kernel",
    "convolve_points",
    "dilate",
    "char_fn",
    "algebra_from_json",
    "ALL_KINDS",
]

ALL_KINDS = ("classical", "symmetric", "alpha_stable", "max", "kendall",
             "kingman", "kendall_type")


@dataclass(frozen=True)
class ConvolutionAlgebra:
    """Descriptor of one generalized convolution: kind plus its parameters."""

    kind: str
    alpha: Optional[float] = None   # alpha_stable, kendall
    s: Optional[float] = None       # kingman, s > -1/2
    c: Optional[float] = None       # kendall_type, c = 1/(p-1)
    p: Optional[float] = None       # kendall_type, p >= 2

    def label(self) -> str:
        parts = [self.kind]
        for name in ("alpha", "s", "c", "p"):
            v = getattr(self, name)
            if v is not None:
                parts.append(f"{name}={v:g}")
        return "(".join([parts[0], ", ".join(parts[1:])]) + ")" if len(parts) > 1 else self.kind


def classical() -> ConvolutionAlgebra:
    return ConvolutionAlgebra("classical")


def symmetric() -> ConvolutionAlgebra:
    return ConvolutionAlgebra("symmetric")


def alpha_stable(alpha: float) -> ConvolutionAlgebra:
    _check_positive(alpha=alpha)
    return ConvolutionAlgebra("alpha_stable", alpha=alpha)


def max_algebra() -> ConvolutionAlgebra:
    return ConvolutionAlgebra("max")


def kendall(alpha: float) -> ConvolutionAlgebra:
    _check_positive(alpha=alpha)
    return ConvolutionAlgebra("kendall", alpha=alpha)


def kingman(s: float) -> ConvolutionAlgebra:
    _check_finite(s=s)
    if s <= -0.5:
        raise ParameterError("kingman requires s > -1/2")
    return ConvolutionAlgebra("kingman", s=s)


def kendall_type(p: float, c: Optional[float] = None) -> ConvolutionAlgebra:
    """Kendall-type algebra with kernel (1 - (c+1)t + c t^p) on [0,1].

    The mixing measures are known in closed form only for c = (p-1)^(-1);
    other (c, p) combinations are rejected.  Their CDFs tend to 1 for every
    p >= 2, so the mixing laws have total mass 1.
    """
    _check_finite(p=p, c=c)
    if p < 2:
        raise ParameterError("kendall_type requires p >= 2")
    expected_c = 1.0 / (p - 1.0)
    if c is None:
        c = expected_c
    elif abs(c - expected_c) > 1e-12:
        raise ParameterError("kendall_type supports only c = 1/(p-1)")
    return ConvolutionAlgebra("kendall_type", c=c, p=p)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def kernel(alg: ConvolutionAlgebra, t) -> float | np.ndarray:
    """Kernel Omega(t) of the algebra's generalized characteristic function."""
    t = _as_array(t)
    # written so that NaN fails the test too
    if not np.all(t >= 0):
        raise ParameterError("kernel argument must be nonnegative")
    k = alg.kind
    if k == "classical":
        out = np.exp(-t)
    elif k == "symmetric":
        out = np.cos(t)
    elif k == "alpha_stable":
        out = np.exp(-np.power(t, alg.alpha))
    elif k == "max":
        out = np.where(t <= 1.0, 1.0, 0.0)
    elif k == "kendall":
        out = np.maximum(1.0 - np.power(t, alg.alpha), 0.0)
    elif k == "kingman":
        out = _kingman_kernel(alg.s, t)
    elif k == "kendall_type":
        c, p = alg.c, alg.p
        out = np.where(t <= 1.0, 1.0 - (c + 1.0) * t + c * np.power(t, p), 0.0)
    else:
        raise ParameterError(f"unknown algebra kind {k!r}")
    return float(out) if out.ndim == 0 else out


def _kingman_kernel(s: float, t: np.ndarray) -> np.ndarray:
    """Normalized Bessel kernel Gamma(s+1) (2/t)^s J_s(t), continuous at 0."""
    from scipy.special import gamma, jv

    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.ones_like(t)
    small = t < 1e-8
    nz = ~small
    if np.any(nz):
        tv = t[nz]
        out[nz] = gamma(s + 1.0) * np.power(2.0 / tv, s) * jv(s, tv)
    if np.any(small):
        # leading series term: 1 - t^2 / (4(s+1))
        ts = t[small]
        out[small] = 1.0 - ts * ts / (4.0 * (s + 1.0))
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------

def dilate(d: Distribution, a: float) -> Distribution:
    """Pushforward of d under scaling by a (``measures._image``); a = 0 gives delta_0."""
    _check_nonnegative(a=a)
    if a == 0.0:
        return point_mass(0.0)
    if a == 1.0:
        return d

    return _image(d, lambda x: x * a, lambda x: x / a, lambda x: 1.0, a, d.tail_index,
                  "dilated", {"base": d.family, "scale": a})


# ---------------------------------------------------------------------------
# point-mass convolution
# ---------------------------------------------------------------------------

def convolve_points(alg: ConvolutionAlgebra, x: float, y: float) -> Distribution:
    """The exact law delta_x <> delta_y as a Distribution."""
    _check_nonnegative(x=x, y=y)
    k = alg.kind
    if x == 0.0 or y == 0.0 or k in ("classical", "alpha_stable", "max"):
        return point_mass(float(_pair_quantile(alg, x, y, 0.5)))

    def quantile(q):
        return _pair_quantile(alg, x, y, q)

    if k == "symmetric":
        locs = [abs(x - y), x + y]

        def cdf(z):
            z = _as_array(z)
            return 0.5 * (z >= locs[0]) + 0.5 * (z >= locs[1])

        return Distribution(((locs[0], 0.5), (locs[1], 0.5)), cdf, quantile,
                            None, locs[1], locs[0], family="two_point")
    if k == "kendall":
        return _kendall_point_convolution(alg.alpha, x, y, quantile)
    if k == "kingman":
        return _kingman_point_convolution(alg.s, x, y, quantile)
    if k == "kendall_type":
        return _kendall_type_point_convolution(alg, x, y, quantile)
    raise ParameterError(f"unknown algebra kind {k!r}")


_LIBM_POW = np.frompyfunc(math.pow, 2, 1)


def _libm_pow(base, exponent) -> np.ndarray:
    """base ** exponent element by element through the C library's pow.

    numpy's vectorized power differs from it in the last bit on some inputs;
    the pair laws' weights and the alpha-stable sum keep the values of
    Python's float ``**``.
    """
    return np.asarray(_LIBM_POW(base, exponent), dtype=float)


def _pair_quantile(alg: ConvolutionAlgebra, x, y, q) -> np.ndarray:
    """Quantile at q of delta_x <> delta_y, element-wise over broadcast x, y and q.

    A pair with x = 0 or y = 0 is the point mass at the other point.  Other
    pairs use the algebra's closed form; Kendall-type pairs share one
    bisection of their CDFs, each bracketed from below by its M = max(x, y).
    """
    x, y, q = np.broadcast_arrays(_as_array(x), _as_array(y), _as_array(q))
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ParameterError("points must be finite")
    if np.any(x < 0) or np.any(y < 0):
        raise ParameterError("points must be nonnegative")
    out = np.where(y == 0.0, x, y)
    on = (x != 0.0) & (y != 0.0)
    if not np.any(on):
        return out
    x, y, q = x[on], y[on], q[on]
    k = alg.kind
    big = np.maximum(x, y)
    r = np.minimum(x, y) / big
    if k == "classical":
        val = x + y
    elif k == "symmetric":
        val = np.where(q <= 0.5, np.abs(x - y), x + y)
    elif k == "alpha_stable":
        a = alg.alpha
        val = _libm_pow(_libm_pow(x, a) + _libm_pow(y, a), 1.0 / a)
    elif k == "max":
        val = big
    elif k == "kendall":
        # atom at M of mass 1 - w below the Pareto(2 alpha) tail dilated by M
        w = _libm_pow(r, alg.alpha)
        tail = np.minimum(np.maximum((1.0 - q) / w, 1e-300), 1.0)
        val = np.where(q <= 1.0 - w, big, big * np.power(tail, -1.0 / (2.0 * alg.alpha)))
    elif k == "kingman":
        # sqrt(x^2 + y^2 + 2xy theta), theta = 2B - 1, B ~ Beta(s + 1/2, s + 1/2)
        a = alg.s + 0.5
        from scipy.special import betaincinv

        th = 2.0 * betaincinv(a, a, q) - 1.0
        val = np.sqrt(np.maximum((x * x + y * y) + (2.0 * x * y) * th, 0.0))
    elif k == "kendall_type":
        cdf = _kendall_type_pair_parts(alg, big, r)[1]
        val = _invert_cdf(cdf, q, big, math.inf)
    else:
        raise ParameterError(f"unknown algebra kind {k!r}")
    out[on] = val
    return out


def _kendall_point_convolution(alpha: float, x: float, y: float, quantile) -> Distribution:
    """delta_x <> delta_y = (1 - r^a) delta_M + r^a * (Pareto tail dilated by M)."""
    m_, M = min(x, y), max(x, y)
    r = m_ / M
    w = r**alpha  # mass of the Pareto part
    a2 = 2.0 * alpha

    def sf(z):
        z = _as_array(z)
        return np.where(z < M, 1.0, w * np.power(M / np.maximum(z, M), a2))

    def cdf(z):
        return 1.0 - sf(z)

    def density(z):
        z = _as_array(z)
        zs = np.maximum(z, M)
        return np.where(z < M, 0.0, w * a2 * M**a2 * np.power(zs, -a2 - 1.0))

    atoms = ((M, 1.0 - w),) if w < 1.0 else ()
    return Distribution(atoms, cdf, quantile, density, math.inf, M,
                        family="kendall_pair", params={"M": M, "w": w, "alpha": alpha},
                        sf_fn=sf, tail_index=a2)


def _kingman_point_convolution(s: float, x: float, y: float, quantile) -> Distribution:
    """Law of sqrt(x^2 + y^2 + 2xy theta) with theta = 2B - 1, B ~ Beta(s+1/2, s+1/2).

    The Beta CDF and quantile (in ``_pair_quantile``) are the ufuncs
    ``scipy.special.betainc`` and ``betaincinv``.  They give the same values
    as a frozen ``stats.beta(a, a)``, without the cost of building one per pair.
    """
    a = s + 0.5
    lo, hi = abs(x - y), x + y
    xx, yy = x * x + y * y, 2.0 * x * y

    def theta_of_z(z):
        return np.clip((np.square(z) - xx) / yy, -1.0, 1.0)

    def cdf(z):
        from scipy.special import betainc

        z = _as_array(z)
        return betainc(a, a, (theta_of_z(np.maximum(z, 0.0)) + 1.0) / 2.0)

    def density(z):
        from scipy import stats

        # f_Z(z) = f_B((theta(z)+1)/2) * dB/dz with dB/dz = z / (2xy)
        z = _as_array(z)
        inside = (z > lo) & (z < hi)
        zs = np.where(inside, z, 0.5 * (lo + hi))
        val = stats.beta.pdf((theta_of_z(zs) + 1.0) / 2.0, a, a) * zs / (2.0 * x * y)
        return np.where(inside, val, 0.0)

    return Distribution((), cdf, quantile, density, hi, lo,
                        family="kingman_pair", params={"s": s, "lo": lo, "hi": hi})


def _kendall_type_tail_index(p: float) -> float:
    """Tail index of the Kendall-type mixing laws: their survival functions
    fall like x^-2, or like x^-3 at p = 2, where the x^-2 terms vanish."""
    return 2.0 if p > 2.0 else 3.0


def _kendall_type_lambda1(alg: ConvolutionAlgebra) -> Distribution:
    """First mixing law of the Kendall-type algebra, c = 1/(p-1).

    CDF derived from the kernel's multiplicativity (the published density
    does not normalize): L1 = 1 - S1 on [1, oo) with
    S1(x) = [p(p-2) x^-2 + 2p x^-(p+1) - (2p-1) x^-2p] / (p-1)^2.
    """
    p = alg.p
    d = (p - 1.0) ** 2

    def sf(x):
        x = _as_array(x)
        xs = np.maximum(x, 1.0)
        val = (p * (p - 2.0) * xs**-2.0 + 2.0 * p * xs**(-p - 1.0)
               - (2.0 * p - 1.0) * xs**(-2.0 * p)) / d
        return np.where(x < 1.0, 1.0, val)

    def cdf(x):
        return 1.0 - sf(x)

    def density(x):
        x = _as_array(x)
        xs = np.maximum(x, 1.0)
        val = (2.0 * p / d) * ((p - 2.0) * xs**-3.0 + (p + 1.0) * xs**(-p - 2.0)
                               - (2.0 * p - 1.0) * xs**(-2.0 * p - 1.0))
        return np.where(x < 1.0, 0.0, val)

    return Distribution((), cdf, None, density, math.inf, 1.0,
                        family="kendall_type_l1", params={"p": p},
                        sf_fn=sf, tail_index=_kendall_type_tail_index(p))


def _kendall_type_lambda2(alg: ConvolutionAlgebra) -> Distribution:
    """Second mixing law: density c [2(p-2) + (p+1) u^(1-p)] u^-3 on [1, oo),
    L2 = 1 - S2 with S2(x) = [(p-2) x^-2 + x^-(p+1)] / (p-1)."""
    p, c = alg.p, alg.c

    def sf(x):
        x = _as_array(x)
        xs = np.maximum(x, 1.0)
        val = ((p - 2.0) * xs**-2.0 + xs**(-p - 1.0)) / (p - 1.0)
        return np.where(x < 1.0, 1.0, val)

    def cdf(x):
        return 1.0 - sf(x)

    def density(x):
        x = _as_array(x)
        xs = np.maximum(x, 1.0)
        val = c * (2.0 * (p - 2.0) + (p + 1.0) * xs**(1.0 - p)) * xs**-3.0
        return np.where(x < 1.0, 0.0, val)

    return Distribution((), cdf, None, density, math.inf, 1.0,
                        family="kendall_type_l2", params={"p": p},
                        sf_fn=sf, tail_index=_kendall_type_tail_index(p))


def _kendall_type_pair_parts(alg: ConvolutionAlgebra, M, r):
    """Atom mass phi(r), CDF, density and survival function of the
    Kendall-type pair law phi(r) delta_M + r^p L1(./M) + (c+1)(r - r^p) L2(./M).

    M = max(x, y) and r = min(x, y) / M are numbers or arrays of one shape.
    """
    c, p = alg.c, alg.p
    w1 = _libm_pow(r, p)
    phi_r = 1.0 - (c + 1.0) * r + c * w1
    w2 = (c + 1.0) * (r - w1)
    lam1 = _kendall_type_lambda1(alg)
    lam2 = _kendall_type_lambda2(alg)

    def cdf(z):
        zr = _as_array(z) / M
        return phi_r * (zr >= 1.0) + w1 * lam1.cdf_fn(zr) + w2 * lam2.cdf_fn(zr)

    def density(z):
        zr = _as_array(z) / M
        return (w1 * lam1.density(zr) + w2 * lam2.density(zr)) / M

    def sf(z):
        z = _as_array(z)
        zr = z / M
        return np.where(z < M, 1.0, w1 * lam1.sf_fn(zr) + w2 * lam2.sf_fn(zr))

    return phi_r, cdf, density, sf


def _kendall_type_point_convolution(alg: ConvolutionAlgebra, x: float, y: float,
                                    quantile) -> Distribution:
    M = max(x, y)
    r = min(x, y) / M
    phi_r, cdf, density, sf = _kendall_type_pair_parts(alg, M, r)
    atoms = ((M, float(phi_r)),) if phi_r > 0 else ()
    return Distribution(atoms, cdf, quantile, density, math.inf, M,
                        family="kendall_type_pair",
                        params={"M": M, "r": r, "p": alg.p, "c": alg.c},
                        sf_fn=sf, tail_index=_kendall_type_tail_index(alg.p))


# ---------------------------------------------------------------------------
# generalized characteristic function
# ---------------------------------------------------------------------------

def char_fn(alg: ConvolutionAlgebra, d: Distribution, t: float) -> float:
    """Phi_d(t) = E Omega(X t); compact-support kernels vanish past X = 1/t.

    The cos kernel against a heavy-tailed density, whose slow decay exhausts
    a plain quadrature's subdivisions, integrates over the whole tail with
    the Fourier weight cos(t x).
    """
    _check_nonnegative(t=t)
    heavy = d.density is not None and math.isfinite(d.tail_index)
    if alg.kind == "symmetric" and t > 0 and heavy:
        val, _ = _quad(lambda x: float(d.density(np.array([x]))[0]), d.support_lower,
                       math.inf, weight="cos", wvar=t, epsabs=QUAD_TOL)
        return sum(m * math.cos(loc * t) for loc, m in d.atoms) + val
    compact = t > 0 and alg.kind in ("max", "kendall", "kendall_type")
    return d.expect(lambda z: float(kernel(alg, z * t)), 1.0 / t if compact else math.inf)


_ALGEBRA_BUILDERS = {
    "classical": lambda o: classical(),
    "symmetric": lambda o: symmetric(),
    "alpha_stable": lambda o: alpha_stable(o["alpha"]),
    "max": lambda o: max_algebra(),
    "kendall": lambda o: kendall(o["alpha"]),
    "kingman": lambda o: kingman(o["s"]),
    "kendall_type": lambda o: kendall_type(o["p"], o.get("c")),
}


def algebra_from_json(obj: dict) -> ConvolutionAlgebra:
    """Build an algebra from {"kind": ..., params...}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParameterError("algebra descriptor must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind not in _ALGEBRA_BUILDERS:
        raise ParameterError(f"unknown algebra kind {kind!r}; expected one of {sorted(_ALGEBRA_BUILDERS)}")
    try:
        return _ALGEBRA_BUILDERS[kind](obj)
    except KeyError as exc:
        raise ParameterError(f"algebra {kind!r} is missing parameter {exc}") from exc
