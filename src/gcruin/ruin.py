"""Ruin and survival probabilities for the generalized risk models.

Analytic solvers: a Volterra product-integration scheme for the alpha-stable
model (survival in the z = u^alpha scale), an exact log-derivative quadrature
for the max model with absolutely continuous laws, and the 0/1 classification
for the max model under a point-mass premium.  Monte Carlo estimation of
Q_infinity(u) = P{claim walk ever reaches the premium walk} works for every
algebra; the Kendall recursion check validates the one-step self-consistency
of the survival functional by two independent estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, stats

from .measures import (
    Distribution,
    ParameterError,
    QUAD_TOL,
    UnsupportedLawError,
    moment_alpha,
    power_transform,
)
from .risk import RiskModel, _is_alpha_model
from .walks import apply_step_batch, chunk_streams

__all__ = [
    "CertainRuinError",
    "RuinEstimate",
    "SurvivalGrid",
    "RecursionCheck",
    "wilson_interval",
    "alpha_ruin_volterra",
    "volterra_residual",
    "alpha_ruin_laplace_check",
    "alpha_ruin",
    "alpha_ruin_grid",
    "max_ruin_ode",
    "max_ruin_integral_residual",
    "max_ruin_lom",
    "has_max_closed_form",
    "max_ruin_closed",
    "mc_ruin",
    "mc_ruin_finite_t",
    "kendall_lambda_recursion_check",
]


class CertainRuinError(ArithmeticError):
    """The net profit condition fails (rho >= 1): ruin is certain, delta <= 0."""


@dataclass(frozen=True)
class RuinEstimate:
    survival: float
    ruin: float
    method: str
    horizon: int | str = "infinite"
    ci_low: float | None = None
    ci_high: float | None = None
    paths: int | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SurvivalGrid:
    z_grid: np.ndarray
    delta_values: np.ndarray

    def __call__(self, z):
        return np.interp(z, self.z_grid, self.delta_values)


def wilson_interval(successes: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1 or not (0 < confidence < 1):
        raise ParameterError("need n >= 1 and confidence in (0, 1)")
    z = stats.norm.ppf(0.5 + confidence / 2.0)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# alpha-stable model: Volterra solver in the z = u^alpha scale
# ---------------------------------------------------------------------------

def alpha_ruin_volterra(F_of_U_alpha: Distribution, gamma: float, beta_alpha: float,
                        z_max: float = 10.0, steps: int = 2000) -> SurvivalGrid:
    """Solve delta(z) = 1 - rho + q * int_0^z delta(z - x)(1 - F(x)) dx.

    Uniform grid, trapezoidal product integration; q = gamma / beta^alpha and
    rho = q * (mean of F).  Second-order accurate in the grid step.
    """
    return _volterra_grid(F_of_U_alpha, gamma, beta_alpha, z_max, steps,
                          moment_alpha(F_of_U_alpha, 1.0))


def _volterra_grid(F_of_U_alpha: Distribution, gamma: float, beta_alpha: float,
                   z_max: float, steps: int, mu: float) -> SurvivalGrid:
    """The solver behind alpha_ruin_volterra, given the claim mean mu."""
    if gamma <= 0 or beta_alpha <= 0 or z_max <= 0 or steps < 2:
        raise ParameterError("need positive gamma, beta_alpha, z_max and steps >= 2")
    q = gamma / beta_alpha
    rho = q * mu
    if not math.isfinite(rho) or rho >= 1.0:
        raise CertainRuinError(f"net profit condition fails: rho = {rho}")
    z = np.linspace(0.0, z_max, steps + 1)
    h = z[1] - z[0]
    k = 1.0 - np.asarray(F_of_U_alpha.cdf(z), dtype=float)
    delta = np.empty(steps + 1)
    delta[0] = 1.0 - rho
    denom = 1.0 - 0.5 * q * h * k[0]
    for i in range(1, steps + 1):
        inner = float(np.dot(k[1:i], delta[i - 1:0:-1])) if i > 1 else 0.0
        delta[i] = (1.0 - rho + q * h * (inner + 0.5 * k[i] * delta[0])) / denom
    return SurvivalGrid(z, np.clip(delta, 0.0, 1.0))


def volterra_residual(grid: SurvivalGrid, F: Distribution, gamma: float,
                      beta_alpha: float) -> float:
    """Max abs residual of the renewal equation re-substituted on the grid.

    Uses the same trapezoidal rule as the solver, so it checks the linear
    system's self-consistency plus the clipping, not the discretization bias.
    """
    z = grid.z_grid
    h = z[1] - z[0]
    q = gamma / beta_alpha
    rho = q * moment_alpha(F, 1.0)
    k = 1.0 - np.asarray(F.cdf(z), dtype=float)
    d = grid.delta_values
    worst = abs(d[0] - (1.0 - rho))
    for i in range(1, len(z)):
        w = k[:i + 1][::-1].copy()
        w[0] *= 0.5
        w[-1] *= 0.5
        integral = h * float(np.dot(w, d[:i + 1]))
        worst = max(worst, abs(d[i] - (1.0 - rho + q * integral)))
    return worst


def alpha_ruin_laplace_check(grid: SurvivalGrid, F: Distribution, gamma: float,
                             beta_alpha: float, s_values) -> list[float]:
    """|Laplace(delta)(s) - (beta^a - gamma mu)/((beta^a - gamma Ghat(s)) s)|.

    Ghat is the Laplace transform of the tail 1 - F, computed by quadrature;
    the grid transform gets an analytic tail correction delta(z_max) e^{-s z}/s.
    """
    mu = moment_alpha(F, 1.0)
    z = grid.z_grid
    d = grid.delta_values
    out = []
    for s in s_values:
        if s <= 0:
            raise ParameterError("Laplace abscissas must be positive")
        lhs = float(np.trapezoid(np.exp(-s * z) * d, z))
        lhs += d[-1] * math.exp(-s * z[-1]) / s
        ghat, _ = integrate.quad(lambda x: math.exp(-s * x) * (1.0 - float(F.cdf(x))),
                                 0.0, F.support_upper, epsabs=QUAD_TOL, limit=400)
        rhs = (beta_alpha - gamma * mu) / ((beta_alpha - gamma * ghat) * s)
        out.append(abs(lhs - rhs))
    return out


def alpha_ruin(u: float, model: RiskModel, z_max: float | None = None,
               steps: int = 2000) -> RuinEstimate:
    """Survival/ruin at capital u for the alpha-stable model: delta(u^alpha)."""
    return alpha_ruin_grid([u], model, z_max, steps)[0]


def alpha_ruin_grid(us, model: RiskModel, z_max: float | None = None,
                    steps: int = 2000) -> list[RuinEstimate]:
    """alpha_ruin at each capital in us, in order.

    The claim mean is computed once, and capitals that share a z_max (the
    default is max(10, 5 u^alpha)) share one Volterra solve, so every
    estimate equals the one alpha_ruin gives for that capital alone.
    """
    if model.algebra.kind != "alpha_stable":
        raise ParameterError("alpha_ruin requires the alpha-stable algebra")
    if not _is_alpha_model(model):
        raise UnsupportedLawError(
            "alpha-model premiums must be the lack-of-memory law lom_alpha of the algebra's order")
    a = model.algebra.alpha
    gamma = model.premium_law.params["gamma"]
    beta_alpha = model.beta**a
    F = power_transform(model.claim_law, a)
    mu = moment_alpha(F, 1.0)
    rho = gamma * mu / beta_alpha
    grids: dict[float, SurvivalGrid] = {}
    out = []
    for u in us:
        if not (math.isfinite(u) and u >= 0):
            raise ParameterError(f"u must be finite and nonnegative, got {u}")
        zu = u**a
        zm = max(10.0, 5.0 * zu) if z_max is None else z_max
        if zu > zm:
            raise ParameterError(f"u^alpha = {zu} exceeds z_max = {zm}")
        if zm not in grids:
            grids[zm] = _volterra_grid(F, gamma, beta_alpha, zm, steps, mu)
        surv = float(grids[zm](zu))
        out.append(RuinEstimate(surv, 1.0 - surv, method="volterra",
                                diagnostics={"rho": rho, "z": zu, "z_max": zm, "steps": steps}))
    return out


# ---------------------------------------------------------------------------
# max model: exact quadrature of the log-derivative ODE
# ---------------------------------------------------------------------------

def _absolutely_continuous(d: Distribution) -> bool:
    """True for the laws the max-model ODE accepts: a density and no atoms."""
    return not d.atoms and d.density is not None


def _density_or_raise(d: Distribution, name: str):
    if not _absolutely_continuous(d):
        raise UnsupportedLawError(f"{name} must be absolutely continuous")
    return d.density


def max_ruin_ode(F: Distribution, G: Distribution, u_grid) -> SurvivalGrid:
    """Survival for the max model: delta' / delta = G f / (1 - F G) below the
    claim supremum a, delta = 1 at and above it.

    F is the claim law (bounded support required for a nonzero answer), G the
    premium law.  Unbounded claims give delta = 0 identically, and premiums
    whose supremum is at most a give delta = 0 below a: the claim walk then
    passes every level the premium walk can reach.
    """
    f = _density_or_raise(F, "claim law")
    _density_or_raise(G, "premium law")
    u_grid = np.asarray(u_grid, dtype=float)
    if np.any(np.diff(u_grid) <= 0) or u_grid[0] < 0:
        raise ParameterError("u_grid must be increasing and nonnegative")
    a = F.support_upper
    if not math.isfinite(a):
        return SurvivalGrid(u_grid, np.zeros_like(u_grid))
    if G.support_upper <= a:
        return SurvivalGrid(u_grid, np.where(u_grid >= a, 1.0, 0.0))

    # F, G < 1 below a < sup G, so the denominator stays positive
    def integrand(y: float) -> float:
        g = float(G.cdf(y))
        return g * float(f(np.array([y]))[0]) / (1.0 - float(F.cdf(y)) * g)

    def delta_one(u: float) -> float:
        if u >= a:
            return 1.0
        pts = sorted({p for p in (G.support_lower, G.support_upper) if u < p < a})
        val, _ = integrate.quad(integrand, u, a, points=pts or None,
                                epsabs=1e-12, limit=400)
        return math.exp(-val)

    return SurvivalGrid(u_grid, np.array([delta_one(float(u)) for u in u_grid]))


def max_ruin_integral_residual(F: Distribution, G: Distribution, u: float) -> float:
    """Residual of delta(u) = delta(u) G(u) F(u) + int_u^oo delta(y) F(y) dG(y).

    Independent check of the ODE solution by direct quadrature against the
    premium law's density.
    """
    g = _density_or_raise(G, "premium law")
    a = F.support_upper
    b = G.support_upper

    def delta(y: float) -> float:
        return float(max_ruin_ode(F, G, [y]).delta_values[0])

    lhs = delta(u)
    pts = sorted({p for p in (a, G.support_lower) if u < p < b})
    integral, _ = integrate.quad(
        lambda y: delta(y) * float(F.cdf(y)) * float(g(np.array([y]))[0]),
        u, b, points=pts or None, epsabs=1e-10, limit=400)
    rhs = lhs * float(G.cdf(u)) * float(F.cdf(u)) + integral
    return abs(lhs - rhs)


def max_ruin_lom(u: float, a: float, F: Distribution) -> RuinEstimate:
    """Max model with the point-mass premium delta_a: survival is 0 or 1.

    Survival is certain iff the largest possible claim is at most u v a.
    """
    if u < 0 or a <= 0:
        raise ParameterError("need u >= 0 and a > 0")
    level = max(u, a)
    surv = 1.0 if float(F.cdf(level)) >= 1.0 - 1e-15 else 0.0
    return RuinEstimate(surv, 1.0 - surv, method="closed_form",
                        diagnostics={"level": level, "F_at_level": float(F.cdf(level))})


def has_max_closed_form(model: RiskModel) -> bool:
    """Whether max_ruin_closed covers the model: the max algebra with a
    point-mass premium, or uniform claims and premiums both starting at 0."""
    F, G = model.claim_law, model.premium_law
    return model.algebra.kind == "max" and (
        G.family in ("point", "lom_max")
        or (F.family == G.family == "uniform" and F.params["a"] == G.params["a"] == 0.0))


def max_ruin_closed(u: float, model: RiskModel) -> RuinEstimate:
    """Closed-form max-model survival at capital u, premium steps beta * W.

    A point-mass premium delta_a is max_ruin_lom at beta * a.  Claims uniform
    on (0, a) against premium steps uniform on (0, b), b = beta * b_W: survival
    is 1 for u >= a, and below a it is sqrt((1 - a/b) / (1 - u^2/(ab))) when
    a < b, else 0 (the claim walk passes every level the premiums reach).
    """
    if not has_max_closed_form(model):
        raise UnsupportedLawError("no closed form for this max-model law pair")
    if not (math.isfinite(u) and u >= 0):
        raise ParameterError(f"u must be finite and nonnegative, got {u}")
    F, G = model.claim_law, model.premium_law
    if G.family in ("point", "lom_max"):
        return max_ruin_lom(u, model.beta * G.params["a"], F)
    a, b = F.params["b"], model.beta * G.params["b"]
    if u >= a:
        surv = 1.0
    elif a < b:
        surv = math.sqrt((1.0 - a / b) / (1.0 - u * u / (a * b)))
    else:
        surv = 0.0
    return RuinEstimate(surv, 1.0 - surv, method="closed_form", diagnostics={"a": a, "b": b})


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------

def _alpha_mc_survival_chunk(model: RiskModel, width: int, horizon: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Alpha-model fast path in the z-scale: survival <=> the random walk
    sum(U_j^alpha - beta^alpha E_j) never reaches u^alpha, E_j ~ Exp(gamma)."""
    a = model.algebra.alpha
    gamma = model.premium_law.params["gamma"]
    level = model.u**a
    scale = model.beta**a
    claim = model.claim_law
    # U^alpha for a lack-of-memory claim law of the same order is Exp(g)
    claim_exp_rate = (claim.params["gamma"]
                      if claim.family == "lom_alpha" and claim.params["alpha"] == a
                      else None)
    alive = np.ones(width, dtype=bool)
    base = np.zeros(width)
    block = 512
    for lo in range(0, horizon, block):
        n = min(block, horizon - lo)
        if claim_exp_rate is not None:
            claims = rng.exponential(1.0 / claim_exp_rate, (n, width))
        elif a == 1.0:
            claims = claim.sample(n * width, rng).reshape(n, width)
        else:
            claims = np.power(claim.sample(n * width, rng).reshape(n, width), a)
        premiums = scale * rng.exponential(1.0 / gamma, (n, width))
        s = base + np.cumsum(claims - premiums, axis=0)
        alive &= s.max(axis=0) < level
        base = s[-1]
        if not alive.any():
            break
    return alive


def _paired_walk(model: RiskModel, x: np.ndarray, y: np.ndarray,
                 rng: np.random.Generator, steps: int,
                 counts: np.ndarray | None = None):
    """Step the claim walk x against the premium walk y; return (x, y, alive).

    A path is alive while y > x after each of its steps.  Path i takes
    `steps` steps, or counts[i] when counts is given; every step still draws
    full-width samples, so a path's randomness never depends on the others'
    counts.  The loop stops early once no path can change: all are ruined,
    or, in the max model, every survivor is above the claim supremum.  The
    returned x and y are the states at that point.
    """
    alg = model.algebra
    a_sup = model.claim_law.support_upper
    saturating = alg.kind == "max" and math.isfinite(a_sup)
    alive = np.ones(x.shape[0], dtype=bool)
    for k in range(1, steps + 1):
        x_new = apply_step_batch(alg, x, model.claim_law.sample(x.shape[0], rng), rng)
        pu = model.beta * model.premium_law.sample(x.shape[0], rng)
        y_new = apply_step_batch(alg, y, pu, rng)
        if counts is None:
            x, y = x_new, y_new
            alive &= y > x
        else:
            active = k <= counts
            x = np.where(active, x_new, x)
            y = np.where(active, y_new, y)
            alive &= ~active | (y > x)
        undecided = alive & (y <= a_sup) if saturating else alive
        if not undecided.any():
            break
    return x, y, alive


def mc_ruin(model: RiskModel, horizon_claims: int = 10_000, paths: int = 100_000,
            seed: int = 0, confidence: float = 0.99) -> RuinEstimate:
    """Monte Carlo survival estimate over the first `horizon_claims` claims.

    Survival means the premium walk started at u strictly dominates the claim
    walk at every claim instant.  The finite horizon makes the estimate an
    upper bound on the infinite-horizon survival probability.
    """
    if horizon_claims < 1 or paths < 1:
        raise ParameterError("need horizon_claims >= 1 and paths >= 1")
    fast_alpha = _is_alpha_model(model)
    survivors = 0
    for lo, hi, rng in chunk_streams(paths, seed):
        if fast_alpha:
            alive = _alpha_mc_survival_chunk(model, hi - lo, horizon_claims, rng)
        else:
            _, _, alive = _paired_walk(model, np.zeros(hi - lo),
                                       np.full(hi - lo, float(model.u)), rng, horizon_claims)
        survivors += int(alive.sum())
    surv = survivors / paths
    lo_ci, hi_ci = wilson_interval(survivors, paths, confidence)
    return RuinEstimate(surv, 1.0 - surv, method="monte_carlo",
                        horizon=horizon_claims, ci_low=lo_ci, ci_high=hi_ci,
                        paths=paths, diagnostics={"confidence": confidence,
                                                  "upper_bound_on_survival": True})


def mc_ruin_finite_t(model: RiskModel, t: float, paths: int = 100_000,
                     seed: int = 0, confidence: float = 0.99) -> RuinEstimate:
    """Ruin by time t: survive the first N claims with N ~ Poisson(lam * t)."""
    if t <= 0 or paths < 1:
        raise ParameterError("need t > 0 and paths >= 1")
    survivors = 0
    for lo, hi, rng in chunk_streams(paths, seed):
        counts = rng.poisson(model.lam * t, hi - lo)
        _, _, alive = _paired_walk(model, np.zeros(hi - lo), np.full(hi - lo, float(model.u)),
                                   rng, int(counts.max(initial=0)), counts)
        survivors += int(alive.sum())
    surv = survivors / paths
    lo_ci, hi_ci = wilson_interval(survivors, paths, confidence)
    return RuinEstimate(surv, 1.0 - surv, method="monte_carlo", horizon=f"t={t:g}",
                        ci_low=lo_ci, ci_high=hi_ci, paths=paths,
                        diagnostics={"confidence": confidence})


# ---------------------------------------------------------------------------
# Kendall recursion consistency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecursionCheck:
    lhs: float
    rhs: float
    residual: float
    ci_low: float
    ci_high: float


def kendall_lambda_recursion_check(v: float, u: float, model: RiskModel,
                                   paths_outer: int = 10_000, paths_inner: int = 1_000,
                                   horizon: int = 16, seed: int = 0,
                                   confidence: float = 0.99) -> RecursionCheck:
    """Self-consistency of the survival functional L(v, u).

    Left side: direct estimate of L at horizon `horizon` + 1 from (v, u).
    Right side: one exact transition step (x1, y1) drawn from the point-mass
    convolutions delta_v <> mu and delta_u <> nu, then an inner estimate of
    L(x1, y1) at horizon `horizon` on the event {y1 > x1}.  Both estimate the
    same finite-horizon quantity, so the residual CI must contain 0.
    """
    if model.algebra.kind != "kendall":
        raise ParameterError("recursion check applies to the kendall algebra")
    if paths_outer < 2 or paths_inner < 1 or horizon < 1:
        raise ParameterError("need paths_outer >= 2, paths_inner >= 1, horizon >= 1")
    z = stats.norm.ppf(0.5 + confidence / 2.0)

    starts_v = np.full(paths_outer, float(v))
    starts_u = np.full(paths_outer, float(u))
    _, _, alive = _paired_walk(model, starts_v, starts_u, np.random.default_rng([seed, 1]),
                               horizon + 1)
    lhs = float(alive.mean())
    se_l = math.sqrt(max(lhs * (1.0 - lhs), 1e-12) / paths_outer)

    x1, y1, _ = _paired_walk(model, starts_v, starts_u, np.random.default_rng([seed, 2]), 1)
    cluster = np.zeros(paths_outer)
    idx = np.nonzero(y1 > x1)[0]
    if idx.size:
        starts_x = np.repeat(x1[idx], paths_inner)
        starts_y = np.repeat(y1[idx], paths_inner)
        inner_alive = np.empty(starts_x.shape[0], dtype=bool)
        for lo, hi, rng in chunk_streams(starts_x.shape[0], seed, width=1 << 20, key=(3,)):
            _, _, inner_alive[lo:hi] = _paired_walk(model, starts_x[lo:hi], starts_y[lo:hi],
                                                    rng, horizon)
        cluster[idx] = inner_alive.reshape(idx.size, paths_inner).mean(axis=1)
    rhs = float(cluster.mean())
    se_r = float(cluster.std(ddof=1)) / math.sqrt(paths_outer)

    residual = lhs - rhs
    half = z * math.sqrt(se_l**2 + se_r**2)
    return RecursionCheck(lhs, rhs, residual, residual - half, residual + half)
