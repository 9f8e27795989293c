"""Reference values and correctness checks for the gcruin benchmark.

Everything here is written apart from gcruin: closed forms derived for the
benchmark's inputs, and statistical checks built on numpy/scipy only.  No
function in this module imports or calls the package under test, so a check
compares the program's output with an independent computation.

Statistical checks reject at a two-sided level of ``P_REJECT``.  The level is
far below the usual 1%, because one benchmark evaluation makes thousands of
checks across seeds and a correct program must pass every one of them.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import integrate, special, stats

#: two-sided rejection level of every statistical check (about 5.7 sigma)
P_REJECT = 1e-8
#: normal quantile matching P_REJECT
Z_REJECT = float(stats.norm.isf(P_REJECT / 2.0))
#: normal quantile of a 99% two-sided interval, used for mc_efficiency
Z99 = float(stats.norm.isf(0.005))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def alpha_exp_survival(z, rho: float = 0.5):
    """Survival of the alpha-stable model in the z = u^alpha scale when U^alpha
    is Exp(1): the Cramer-Lundberg answer 1 - rho e^{-(1 - rho) z}.

    With gamma = 1 and beta^alpha = 2, rho = 1/2 and this is 1 - e^{-z/2}/2.
    """
    return 1.0 - rho * np.exp(-(1.0 - rho) * np.asarray(z, dtype=float))


def max_uniform_survival(u, a: float, b: float):
    """Max model, claims U(0, a), premiums U(0, b), a < b:
    sqrt((1 - a/b) / (1 - u^2/(ab))) below a, 1 from a on."""
    u = np.asarray(u, dtype=float)
    inside = np.minimum(u, a)
    val = np.sqrt((1.0 - a / b) / (1.0 - inside * inside / (a * b)))
    return np.where(u >= a, 1.0, val)


def kendall_claim_moment(lam: float, t: float, c: float, alpha: float) -> float:
    """E X_t^alpha of the Kendall claim walk with lack-of-memory steps
    min{(cx)^alpha, 1} at a Poisson(lam t) time: lam t c^-alpha / 2."""
    return 0.5 * lam * t * c ** (-alpha)


def kendall_margin(u: float, alpha: float) -> float:
    """E(u <> Y_t)^alpha - E X_t^alpha for equal step laws: u^alpha, by the
    alpha-additivity E(delta_x <> delta_y)^alpha = x^alpha + y^alpha."""
    return u**alpha


def kendall_uniform_H(x, alpha: float, b: float = 1.0):
    """H(x) = Phi(1/x) = E (1 - (X/x)^alpha)_+ for X ~ U(0, b), written out:
    alpha x / ((alpha + 1) b) for x <= b, 1 - b^alpha / ((alpha + 1) x^alpha) above."""
    x = np.asarray(x, dtype=float)
    xs = np.maximum(x, 1e-300)
    low = alpha * xs / ((alpha + 1.0) * b)
    high = 1.0 - (b / xs) ** alpha / (alpha + 1.0)
    return np.where(x <= b, low, high)


def kendall_uniform_n_step_cdf(x, n: int, alpha: float, b: float = 1.0):
    """CDF of the n-step Kendall walk from 0 with U(0, b) steps:
    H^(n-1) (H + n (F - H)) with F(x) = min(x/b, 1)."""
    x = np.asarray(x, dtype=float)
    F = np.clip(x / b, 0.0, 1.0)
    H = kendall_uniform_H(x, alpha, b)
    return np.where(x <= 0.0, 0.0, H ** (n - 1) * (H + n * (F - H)))


def lom_kendall_FH(x, c: float, alpha: float):
    """F(x) = min{(cx)^alpha, 1} and its H(x) = Phi(1/x) at order alpha:
    (cx)^alpha / 2 for cx <= 1, 1 - (cx)^-alpha / 2 above."""
    cx = c * np.maximum(np.asarray(x, dtype=float), 0.0)
    F = np.minimum(cx**alpha, 1.0)
    H = np.where(cx <= 1.0, 0.5 * cx**alpha, 1.0 - 0.5 * np.maximum(cx, 1.0) ** (-alpha))
    return F, H


def lom_kendall_transform(t, c: float, alpha: float):
    """Williamson transform Phi(t) = H(1/t) of min{(cx)^alpha, 1}."""
    return lom_kendall_FH(1.0 / np.maximum(np.asarray(t, dtype=float), 1e-300), c, alpha)[1]


def kendall_compound_cdf(x, lam_t: float, c: float, alpha: float, u: float = 0.0):
    """CDF of the Kendall walk started at u after Poisson(lam_t) steps of law
    min{(cx)^alpha, 1}: (1 + lam_t (1 - (u/x)^alpha)(F - H)) e^{-lam_t (1 - H)}
    from u on, 0 below.  Its atom at u has mass e^{-lam_t (1 - H(u))}."""
    x = np.asarray(x, dtype=float)
    F, H = lom_kendall_FH(x, c, alpha)
    shrink = 1.0 - (u / np.maximum(x, 1e-300)) ** alpha
    val = (1.0 + lam_t * shrink * (F - H)) * np.exp(-lam_t * (1.0 - H))
    return np.where(x < u, 0.0, val)


def truncated_alpha_moment(cdf, alpha: float, cap: float, points=()) -> float:
    """E min(X^alpha, cap) = int_0^(cap^(1/alpha)) alpha x^(alpha-1) (1 - cdf(x)) dx."""
    top = cap ** (1.0 / alpha)
    pts = sorted(p for p in points if 0.0 < p < top)
    val, _ = integrate.quad(lambda x: alpha * x ** (alpha - 1.0) * (1.0 - float(cdf(x))),
                            0.0, top, points=pts or None, epsabs=1e-12, limit=400)
    return val


def moment_uniform(a: float, b: float, alpha: float) -> float:
    return (b ** (alpha + 1.0) - a ** (alpha + 1.0)) / ((alpha + 1.0) * (b - a))


def moment_weibull(gamma: float, shape: float, alpha: float) -> float:
    """E X^alpha for F(x) = 1 - exp(-gamma x^shape)."""
    return math.gamma(1.0 + alpha / shape) * gamma ** (-alpha / shape)


def moment_pareto_2a(a: float, alpha: float) -> float:
    """E X^alpha for density 2a x^(-2a-1) on [1, oo): 2a / (2a - alpha)."""
    return 2.0 * a / (2.0 * a - alpha) if alpha < 2.0 * a else math.inf


def moment_lom_kendall(c: float, a: float, alpha: float) -> float:
    """E X^alpha for F(x) = min{(cx)^a, 1}: a / (a + alpha) c^-alpha."""
    return a / (a + alpha) * c ** (-alpha)


def kingman_kernel(s: float, t):
    """Gamma(s+1) (2/t)^s J_s(t), equal to 1 at t = 0."""
    t = np.asarray(t, dtype=float)
    ts = np.maximum(t, 1e-12)
    val = special.gamma(s + 1.0) * (2.0 / ts) ** s * special.jv(s, ts)
    return np.where(t < 1e-12, 1.0, val)


def kendall_type_kernel(p: float, t):
    """1 - (c+1) t + c t^p on [0, 1], 0 beyond, with c = 1/(p-1)."""
    t = np.asarray(t, dtype=float)
    c = 1.0 / (p - 1.0)
    return np.where(t <= 1.0, 1.0 - (c + 1.0) * t + c * t**p, 0.0)


def uniform_char_fn(kernel, t: float, b: float = 1.0) -> float:
    """Phi(t) = (1/b) int_0^b Omega(x t) dx by adaptive quadrature."""
    pts = [1.0 / t] if t > 0 and 1.0 / t < b else None
    val, _ = integrate.quad(lambda x: float(kernel(x * t)), 0.0, b,
                            points=pts, epsabs=1e-12, limit=200)
    return val / b


# ---------------------------------------------------------------------------
# statistical checks; each returns (ok, detail)
# ---------------------------------------------------------------------------

def wilson_half_width(k: int, n: int, z: float = Z99) -> float:
    """Half-width of the Wilson score interval for k successes in n."""
    phat = k / n
    denom = 1.0 + z * z / n
    return z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom


def check_binomial(k: int, n: int, p: float) -> tuple[bool, str]:
    """Exact binomial test of k successes in n trials against probability p."""
    lower = float(stats.binom.cdf(k, n, p))
    upper = float(stats.binom.sf(k - 1, n, p))
    pval = min(1.0, 2.0 * min(lower, upper))
    return pval >= P_REJECT, f"{k}/{n} vs p={p:.6g} (two-sided p-value {pval:.3g})"


def check_bounded_mean(values, mu: float, lo: float, hi: float) -> tuple[bool, str]:
    """Empirical Bernstein test of a sample mean against mu for values in
    [lo, hi] (Maurer & Pontil 2009): valid for any sample size and any
    skewness, which a normal approximation at this level is not."""
    values = np.asarray(values, dtype=float)
    n = values.size
    log_term = math.log(4.0 / P_REJECT)
    var = float(values.var(ddof=1))
    eps = math.sqrt(2.0 * var * log_term / n) + 7.0 * (hi - lo) * log_term / (3.0 * (n - 1))
    diff = float(values.mean()) - mu
    ok = abs(diff) <= eps and values.min() >= lo and values.max() <= hi
    return ok, f"mean {values.mean():.6g} vs {mu:.6g} (bound {eps:.3g})"


def check_close(value: float, target: float, tol: float) -> tuple[bool, str]:
    ok = math.isfinite(value) and abs(value - target) <= tol
    return ok, f"{value:.10g} vs {target:.10g} (tol {tol:g})"


def check_ks(sample, cdf) -> tuple[bool, str]:
    """One-sample Kolmogorov-Smirnov test against a continuous CDF."""
    res = stats.kstest(np.asarray(sample, dtype=float), cdf)
    return res.pvalue >= P_REJECT, f"KS {res.statistic:.4g} (p-value {res.pvalue:.3g})"


def check_ks2(a, b) -> tuple[bool, str]:
    """Two-sample Kolmogorov-Smirnov test: the samples share one law."""
    res = stats.ks_2samp(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return res.pvalue >= P_REJECT, f"KS2 {res.statistic:.4g} (p-value {res.pvalue:.3g})"


def check_kendall_terminal(sample, lam_t: float, c: float, alpha: float,
                           u: float = 0.0, cap: float = 20.0) -> list[tuple[bool, str]]:
    """Terminal positions of the Kendall walk from u after Poisson(lam_t)
    lack-of-memory steps: the atom at u (binomial), the law above u (KS) and
    E min(X^alpha, cap).  X^alpha itself has tail index 2 and no variance, so
    no bound holds for its plain sample mean; the truncated mean is bounded."""
    x = np.asarray(sample, dtype=float)
    def cdf(v):
        return kendall_compound_cdf(v, lam_t, c, alpha, u)
    atom = float(cdf(u))
    at_u = x == u
    above = x[~at_u]
    want = truncated_alpha_moment(cdf, alpha, cap, points=(u, 1.0 / c))
    return [check_binomial(int(at_u.sum()), x.size, atom),
            check_ks(above, lambda v: (cdf(v) - atom) / (1.0 - atom)),
            check_bounded_mean(np.minimum(x**alpha, cap), want, 0.0, cap)]


def check_residual(residual: float, lhs: float, rhs: float, n: int) -> tuple[bool, str]:
    """The recursion residual lhs - rhs must be 0 within a Hoeffding bound.

    lhs is a proportion over n paths and rhs a mean of n independent cluster
    values in [0, 1], so P(|lhs - rhs| >= eps) <= 2 exp(-n eps^2).
    """
    eps = math.sqrt(math.log(2.0 / P_REJECT) / n)
    ok = abs(residual - (lhs - rhs)) <= 1e-12 and abs(residual) <= eps
    return ok, f"residual {residual:.4g} (bound {eps:.3g})"


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_csv_finite(path, columns) -> tuple[bool, str]:
    """Every named column of every data row parses as a finite number."""
    header, rows = read_csv_rows(path)
    idx = [header.index(c) for c in columns]
    bad = [r for r in rows if not all(math.isfinite(float(r[i])) for i in idx)]
    return (not bad and bool(rows)), f"{len(rows)} rows, {len(bad)} not finite"
