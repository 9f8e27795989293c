"""Williamson transform, its inversion, and closed-form Kendall-walk CDFs.

The Kendall algebra's characteristic function of a law with CDF F is the
Williamson transform Phi(t) = integral of (1 - (ts)^a)_+ dF(s).  With
H(t) = Phi(1/t) the transform inverts as F(t) = H(t) + t H'(t)/a, and the
n-step and Poisson-compounded walk CDFs are closed-form expressions in
(F, H).  The same machinery applies to the premium pair (G, J).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from .convolutions import convolve_points, kendall
from .measures import Distribution, ParameterError, QUAD_TOL, _as_array

__all__ = [
    "InversionError",
    "KendallLawPair",
    "psi",
    "williamson_transform",
    "transform_form1",
    "transform_form2",
    "williamson_invert",
    "kendall_pair",
    "n_step_cdf",
    "compound_cdf",
    "shifted_n_step_cdf",
    "shifted_compound_cdf",
    "shifted_compound_atom",
    "transition_cdf_points",
    "one_step_from_point_cdf",
]


class InversionError(ArithmeticError):
    """Numeric differentiation failed while inverting a transform."""


def psi(s, alpha: float):
    """Psi(s) = (1 - s^a)_+; the unique choice making the two-point transition
    formulas agree with the closed form 1 - (xy/t^2)^a."""
    s = _as_array(s)
    out = np.maximum(1.0 - np.power(np.minimum(np.maximum(s, 0.0), 1.0), alpha), 0.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# transform and inversion
# ---------------------------------------------------------------------------

def williamson_transform(F: Callable | Distribution, alpha: float, t) -> float | np.ndarray:
    """Phi(t) = a t^a * integral_0^(1/t) s^(a-1) F(s) ds  (CDF-only form)."""
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    cdf = F.cdf if isinstance(F, Distribution) else F
    pts = sorted({loc for loc, _ in F.atoms} | {F.support_lower}) if isinstance(F, Distribution) else []

    def one(tv: float) -> float:
        if tv < 0:
            raise ParameterError("t must be nonnegative")
        if tv == 0.0:
            return 1.0
        hi = 1.0 / tv
        inner = [p for p in pts if 0.0 < p < hi]
        val, _ = integrate.quad(
            lambda s: s ** (alpha - 1.0) * float(np.asarray(cdf(s))),
            0.0, hi, points=inner or None, epsabs=QUAD_TOL, limit=400,
        )
        return alpha * tv**alpha * val

    t = _as_array(t)
    if t.ndim == 0:
        return one(float(t))
    return np.array([one(float(tv)) for tv in t])


def transform_form1(d: Distribution, alpha: float, t: float) -> float:
    """Phi(t) as a Stieltjes integral of the kernel (1 - (ts)^a)_+ against d."""
    if t < 0:
        raise ParameterError("t must be nonnegative")
    if t == 0.0:
        return 1.0
    return d.expect(lambda s: max(1.0 - (t * s) ** alpha, 0.0), 1.0 / t)


def transform_form2(d: Distribution, alpha: float, t: float) -> float:
    """Phi(t) = F(1/t) - t^a * integral_0^(1/t) s^a dF(s)."""
    if t < 0:
        raise ParameterError("t must be nonnegative")
    if t == 0.0:
        return 1.0
    cut = 1.0 / t
    stieltjes = d.expect(lambda s: s**alpha if s <= cut else 0.0, cut)
    return float(d.cdf(cut)) - t**alpha * stieltjes


def williamson_invert(H: Callable, alpha: float, t: float,
                      dH: Optional[Callable] = None) -> float:
    """Recover F(t) = H(t) + t H'(t) / a.

    With an analytic derivative the inversion is exact; otherwise H' is
    estimated by Richardson-extrapolated central differences.
    """
    if t <= 0:
        raise ParameterError("t must be positive")
    if dH is not None:
        deriv = float(dH(t))
    else:
        h = max(1e-5, 1e-5 * t)
        if t - h <= 0:
            h = 0.5 * t
        d1 = (float(H(t + h)) - float(H(t - h))) / (2.0 * h)
        h2 = 0.5 * h
        d2 = (float(H(t + h2)) - float(H(t - h2))) / (2.0 * h2)
        deriv = (4.0 * d2 - d1) / 3.0
    if not math.isfinite(deriv):
        raise InversionError(f"derivative estimate at t={t} is not finite")
    return float(H(t)) + t * deriv / alpha


# ---------------------------------------------------------------------------
# law pairs (F, H)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KendallLawPair:
    """A step law's CDF F together with H(t) = Phi(1/t) for a fixed order a.

    F is the law's own CDF.  H'(t) = a (F(t) - H(t)) / t everywhere both are
    defined, so the pair carries its own exact derivative.
    """

    H: Callable[[np.ndarray], np.ndarray]
    alpha: float
    dist: Distribution

    @property
    def F(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.dist.cdf

    def dH(self, t):
        t = _as_array(t)
        return self.alpha * (self.F(t) - self.H(t)) / t


def _closed_form_h(d: Distribution, alpha: float):
    fam = d.family
    if fam in ("point", "lom_max"):
        a = d.params["a"]

        def H(x):
            x = _as_array(x)
            xs = np.maximum(x, 1e-300)
            return np.maximum(1.0 - np.power(a / xs, alpha), 0.0)

        return H
    if fam == "lom_kendall" and d.params["alpha"] == alpha:
        c = d.params["c"]

        def H(x):
            x = _as_array(x)
            cx = c * np.maximum(x, 0.0)
            low = 0.5 * np.power(cx, alpha)
            high = 1.0 - 0.5 * np.power(np.maximum(cx, 1.0), -alpha)
            return np.where(cx <= 1.0, low, high)

        return H
    if fam == "pareto2a":
        a2 = 2.0 * d.params["alpha"]

        def H(x):
            x = _as_array(x)
            xs = np.maximum(x, 1.0)
            t = 1.0 / xs
            if abs(a2 - alpha) < 1e-12:
                val = 1.0 - t**a2 - a2 * t**a2 * np.log(xs)
            else:
                val = 1.0 - t**a2 - (a2 / (a2 - alpha)) * t**alpha * (1.0 - t**(a2 - alpha))
            return np.where(x <= 1.0, 0.0, val)

        return H
    if fam == "uniform" and d.params["a"] == 0.0:
        b = d.params["b"]

        def H(x):
            x = _as_array(x)
            xb = np.maximum(x, 1e-300) / b   # = 1/(b t)
            outside = 1.0 - np.power(1.0 / np.maximum(xb, 1e-300), alpha) / (alpha + 1.0)
            return np.where(xb <= 1.0, alpha * xb / (alpha + 1.0), outside)

        return H
    return None


def kendall_pair(d: Distribution, alpha: float) -> KendallLawPair:
    """Build (F, H) for a step law; closed-form H where the family allows it."""
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    H = _closed_form_h(d, alpha)
    if H is None:
        def H(x):
            arr = np.atleast_1d(_as_array(x))
            out = np.array([williamson_transform(d, alpha, 1.0 / xv) if xv > 0 else 0.0
                            for xv in arr])
            return out[0] if np.ndim(x) == 0 else out
    return KendallLawPair(H=H, alpha=alpha, dist=d)


# ---------------------------------------------------------------------------
# walk CDFs
# ---------------------------------------------------------------------------

def n_step_cdf(pair: KendallLawPair, n: int, t):
    """CDF of the n-step Kendall walk: H^(n-1) [H + n (F - H)]."""
    return shifted_n_step_cdf(0.0, pair, n, t)


def compound_cdf(pair: KendallLawPair, lam: float, t: float, x):
    """CDF of the Poisson(lam * t)-compounded walk position, N = 0 included."""
    return shifted_compound_cdf(0.0, pair, lam, t, x)


def shifted_n_step_cdf(u: float, pair: KendallLawPair, n: int, t):
    """CDF of the walk started at u after n steps; atom at u of mass H(u)^n.

    H^(n-1) [H + n Psi(u/t) (F - H)] on t >= u, and 0 below u.
    """
    if u < 0:
        raise ParameterError("u must be nonnegative")
    if n < 0:
        raise ParameterError("n must be >= 0")
    t = _as_array(t)
    if np.any(t <= 0):
        raise ParameterError("t must be positive")
    ind = (t >= u).astype(float)
    if n == 0:
        out = ind
        return float(out) if out.ndim == 0 else out
    F, H = pair.F(t), pair.H(t)
    shrink = psi(u / np.maximum(t, 1e-300), pair.alpha)
    out = ind * np.power(H, n - 1) * (H + n * shrink * (F - H))
    return float(out) if out.ndim == 0 else out


def shifted_compound_cdf(u: float, pair: KendallLawPair, lam: float, t: float, x):
    """CDF of the Poisson-compounded walk started at u; 0 below u, atom at u.

    (1 + lam t Psi(u/x) (F - H)) exp(-lam t (1 - H)) on x >= u.
    """
    if u < 0:
        raise ParameterError("u must be nonnegative")
    if lam < 0 or t < 0:
        raise ParameterError("lam and t must be nonnegative")
    x = _as_array(x)
    if np.any(x <= 0):
        raise ParameterError("x must be positive")
    lt = lam * t
    F, H = pair.F(x), pair.H(x)
    shrink = psi(u / np.maximum(x, 1e-300), pair.alpha)
    out = np.where(x < u, 0.0, (1.0 + lt * shrink * (F - H)) * np.exp(-lt * (1.0 - H)))
    return float(out) if out.ndim == 0 else out


def shifted_compound_atom(u: float, pair: KendallLawPair, lam: float, t: float) -> float:
    """Mass the compounded shifted walk keeps at its starting point u."""
    hval = float(pair.H(np.array([u]))[0]) if u > 0 else 0.0
    return float(np.exp(-lam * t * (1.0 - hval)))


def transition_cdf_points(alpha: float, x: float, y: float, t: float) -> float:
    """P(X <= t) for X ~ delta_x <> delta_y in the Kendall algebra of order alpha.

    Below max(x, y) this is 0; from there on it is 1 - (xy/t^2)^a.  The
    published h(x, y, t), written with strict inequalities, is its left limit.
    """
    return convolve_points(kendall(alpha), x, y).cdf(t)


def one_step_from_point_cdf(v: float, pair: KendallLawPair, t: float) -> float:
    """One-step transition CDF from state v: Psi(v/t) F(t) + (1 - Psi(v/t)) H(t) on t >= v."""
    return shifted_n_step_cdf(v, pair, 1, t)
