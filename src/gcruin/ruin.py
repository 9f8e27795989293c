"""Ruin and survival probabilities for the generalized risk models.

Analytic solvers: a Volterra product-integration scheme for the alpha-stable
model (survival in the z = u^alpha scale), and one product integral for the
max model under every pair of claim and premium laws, atoms included, with the
closed forms (point premiums, uniform pairs) as its oracle.  Monte Carlo estimation of
Q_infinity(u) = P{claim walk ever reaches the premium walk} works for every
algebra; the Kendall recursion check validates the one-step self-consistency
of the survival functional by two independent estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .convolutions import dilate
from .measures import (
    Distribution,
    ParameterError,
    QUAD_TOL,
    UnsupportedLawError,
    _check_integer,
    _check_nonnegative,
    _check_positive,
    _quad,
    moment_alpha,
    power_transform,
)
from .risk import RiskModel, _alpha_model_scale, _is_alpha_model
from .walks import CHUNK, _check_poisson_mean, apply_step_batch, map_chunks

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
    "has_max_closed_form",
    "max_ruin_closed",
    "mc_ruin",
    "mc_ruin_finite_t",
    "kendall_lambda_recursion_check",
    "survival",
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


def _check_confidence(confidence: float) -> None:
    """Raise ParameterError unless 0 < confidence < 1; NaN fails too."""
    if not 0 < confidence < 1:
        raise ParameterError(f"confidence must lie in (0, 1), got {confidence}")


def _normal_quantile(confidence: float) -> float:
    """z with P(|N(0, 1)| <= z) = confidence, as a Python float: the one
    scipy.special import of the Monte Carlo intervals, made on first use."""
    from scipy.special import ndtri

    return float(ndtri(0.5 + confidence / 2.0))


def wilson_interval(successes: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    _check_integer(successes=successes, n=n)
    if n < 1 or not 0 <= successes <= n:
        raise ParameterError(f"need n >= 1 and 0 <= successes <= n, got {successes} of {n}")
    _check_confidence(confidence)
    z = _normal_quantile(confidence)
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
    _check_positive(z_max=z_max)
    return _volterra_grid(F_of_U_alpha, gamma, beta_alpha, [z_max], steps,
                          moment_alpha(F_of_U_alpha, 1.0))[0]


def _volterra_grid(F_of_U_alpha: Distribution, gamma: float, beta_alpha: float,
                   z_maxes, steps: int, mu: float) -> list[SurvivalGrid]:
    """The solver behind alpha_ruin_volterra, given the claim mean mu: one grid
    per end in z_maxes, solved as the rows of one recursion.  Each step's
    inner sums are one np.vecdot over the rows.
    """
    _check_positive(gamma=gamma, beta_alpha=beta_alpha)
    _check_integer(steps=steps)
    if steps < 2:
        raise ParameterError("need steps >= 2")
    q = gamma / beta_alpha
    rho = gamma * mu / beta_alpha
    if not math.isfinite(rho) or rho >= 1.0:
        raise CertainRuinError(f"net profit condition fails: rho = {rho}")
    z = np.array([np.linspace(0.0, zm, steps + 1) for zm in z_maxes]).reshape(-1, steps + 1)
    h = z[:, 1] - z[:, 0]
    k = 1.0 - np.array([F_of_U_alpha.cdf(row) for row in z], dtype=float).reshape(z.shape)
    # the recursion is a discrete renewal equation, bounded while its own rho,
    # q h (k_0/2 + k_1 + ... + k_steps), stays below 1; k is nonincreasing, so
    # that rho is at most rho + q h k_0 / 2, which names a steps count that works
    if not np.all(q * h * (0.5 * k[:, 0] + k[:, 1:].sum(axis=1)) < 1.0):
        zm = max(z_maxes)
        need = math.floor(q * k[0, 0] * zm / (2.0 * (1.0 - rho))) + 1
        raise ParameterError(f"steps = {steps} is too few for z_max = {zm:g}: the Volterra "
                             f"scheme diverges; steps >= {need} keep it bounded")
    denom = 1.0 - 0.5 * q * h * k[:, 0]
    d0 = 1.0 - rho
    # delta is kept reversed, rev[:, steps - j] = delta[:, j], so delta[i-1], ...,
    # delta[1] is the contiguous slice rev[:, steps-i+1:steps]
    rev = np.full_like(z, d0)
    qh, half_k = q * h, 0.5 * k * d0
    for i in range(1, steps + 1):
        # np.vecdot is np.dot row by row, bit for bit; the empty sum at i = 1 is 0
        inner = np.vecdot(k[:, 1:i], rev[:, steps - i + 1:steps])
        rev[:, steps - i] = (d0 + qh * (inner + half_k[:, i])) / denom
    return [SurvivalGrid(zr, dr) for zr, dr in zip(z, np.clip(rev[:, ::-1], 0.0, 1.0))]


def volterra_residual(grid: SurvivalGrid, F: Distribution, gamma: float,
                      beta_alpha: float) -> float:
    """Max abs residual of the renewal equation re-substituted on the grid.

    Uses the same trapezoidal rule as the solver, so it checks the linear
    system's self-consistency plus the clipping, not the discretization bias.
    """
    z = grid.z_grid
    h = z[1] - z[0]
    q = gamma / beta_alpha
    rho = gamma * moment_alpha(F, 1.0) / beta_alpha
    k = 1.0 - np.asarray(F.cdf(z), dtype=float)
    d = grid.delta_values
    # trapezoid sums of k(z_i - x) d(x) over [0, z_i], every i at once
    trap = np.convolve(k, d)[:len(z)] - 0.5 * k * d[0] - 0.5 * k[0] * d
    rhs = 1.0 - rho + q * (h * trap)
    return float(np.max(np.abs(d - rhs)))


def alpha_ruin_laplace_check(grid: SurvivalGrid, F: Distribution, gamma: float,
                             beta_alpha: float, s_values) -> list[float]:
    """|Laplace(delta)(s) - (beta^a - gamma mu)/((beta^a - gamma Ghat(s)) s)|.

    Ghat is the Laplace transform of the tail 1 - F, computed by quadrature;
    the grid transform gets an analytic tail correction delta(z_max) e^{-s z}/s.
    """
    s_arr = np.asarray(s_values, dtype=float)
    if not np.all((s_arr > 0) & (s_arr < math.inf)):
        raise ParameterError(f"Laplace abscissas must be finite and positive, got {s_values}")
    mu = moment_alpha(F, 1.0)
    z = grid.z_grid
    d = grid.delta_values
    out = []
    for s in s_values:
        lhs = float(np.trapezoid(np.exp(-s * z) * d, z))
        lhs += d[-1] * math.exp(-s * z[-1]) / s
        ghat, _ = _quad(lambda x: math.exp(-s * x) * (1.0 - float(F.cdf(x))),
                        0.0, F.support_upper, epsabs=QUAD_TOL, limit=400)
        rhs = (beta_alpha - gamma * mu) / ((beta_alpha - gamma * ghat) * s)
        out.append(abs(lhs - rhs))
    return out


def alpha_ruin(u: float, model: RiskModel, steps: int = 2000) -> RuinEstimate:
    """Survival/ruin at capital u for the alpha-stable model: delta(u^alpha)."""
    return alpha_ruin_grid([u], model, steps)[0]


def alpha_ruin_grid(us, model: RiskModel, steps: int = 2000) -> list[RuinEstimate]:
    """alpha_ruin at each capital in us, in order.

    The Volterra grid for capital u ends at z_max = max(10, 5 u^alpha).  Every
    distinct z_max is one row of a single solve, and each estimate equals the
    one alpha_ruin gives for that capital alone.
    """
    F, gamma, beta_alpha, mu = _alpha_model_scale(model)
    a = model.algebra.alpha
    rho = gamma * mu / beta_alpha
    for u in us:
        _check_nonnegative(u=u)
    zs = [u**a for u in us]
    ends, row = np.unique([max(10.0, 5.0 * zu) for zu in zs], return_inverse=True)
    grids = _volterra_grid(F, gamma, beta_alpha, ends, steps, mu)
    survs = [float(grids[r](zu)) for zu, r in zip(zs, row)]
    return [RuinEstimate(s, 1.0 - s, method="volterra", diagnostics={
        "rho": rho, "z": zu, "z_max": float(ends[r]), "steps": steps})
        for s, zu, r in zip(survs, zs, row)]


# ---------------------------------------------------------------------------
# max model: the product integral of the one-step equation
# ---------------------------------------------------------------------------

def _cuts(d: Distribution) -> tuple[float, ...]:
    """Where d or its density jumps inside the support: its atoms and its knots."""
    return (*(v for v, _ in d.atoms), *d.knots)


def _cdf_below(F: Distribution, y: float) -> float:
    """F(y-): the cdf at y without the atoms at y."""
    return float(F.cdf(y)) - sum(m for v, m in F.atoms if v == y)


def max_ruin_ode(F: Distribution, G: Distribution, u_grid) -> SurvivalGrid:
    """Max-model survival at each capital in u_grid, for any claim law F and
    premium law G.  From premium level y a step survives iff the claim lies
    below the new level, so delta(y)(1 - G(y)F(y-)) = int_(y,oo) F(w-) delta(w) dG(w).

    Its product integral: delta = 1 above the claim supremum a, and at u <= a
    delta(u) = exp(-int_u^a G f / (1 - F G) dy), f the density of F's
    continuous part, times (1 - G(v)F(v)) / (1 - G(v)F(v-)) over the claim
    atoms v in [u, a].  Unbounded claims give delta = 0, and so does every
    level below a when the premiums put no mass at or above a.
    """
    u_grid = np.asarray(u_grid, dtype=float)
    if not (np.all((u_grid >= 0) & (u_grid < math.inf)) and np.all(np.diff(u_grid) > 0)):
        raise ParameterError(f"u_grid must be finite, nonnegative and increasing, got {u_grid}")
    a = F.support_upper
    if not math.isfinite(a):
        return SurvivalGrid(u_grid, np.zeros_like(u_grid))
    f = F.density
    if f is None and F.atom_mass < 1.0 - 1e-9:
        raise UnsupportedLawError("the claim law's continuous part needs a density")
    reaches_a = G.support_upper > a or any(v == a and m > 0 for v, m in G.atoms)
    cuts = {G.support_lower, G.support_upper, *_cuts(F), *_cuts(G)}

    def jump(v: float) -> float:
        """delta(v) / delta(v+) at a claim atom v; F(a) = 1 exactly."""
        g = G.cdf(v)
        return (1.0 - g * (1.0 if v == a else F.cdf(v))) / (1.0 - g * _cdf_below(F, v))

    jumps = [(v, jump(v)) for v in {v for v, m in F.atoms if m > 0}]

    # the premiums reach a, so F G < 1 on (u, a): the denominator stays positive
    def integrand(y: float) -> float:
        g = float(G.cdf(y))
        return g * float(f(np.array([y]))[0]) / (1.0 - float(F.cdf(y)) * g)

    def delta_one(u: float) -> float:
        if u > a:
            return 1.0
        if u < a and not reaches_a:
            return 0.0
        val = 0.0
        if f is not None and u < a:
            pts = sorted(p for p in cuts if u < p < a)
            val, _ = _quad(integrand, u, a, points=pts or None, epsabs=1e-12, limit=400)
        return math.exp(-val) * math.prod(j for v, j in jumps if v >= u)

    return SurvivalGrid(u_grid, np.array([delta_one(float(u)) for u in u_grid]))


def max_ruin_integral_residual(F: Distribution, G: Distribution, u: float) -> float:
    """Residual of delta(u)(1 - G(u)F(u-)) = int_(u,oo) F(w-) delta(w) dG(w).

    Independent check of max_ruin_ode: the right side is a quadrature against
    the premium law's density plus a sum over its atoms above u.
    """
    a, b = F.support_upper, G.support_upper

    def delta(y: float) -> float:
        return float(max_ruin_ode(F, G, [y]).delta_values[0])

    lhs = delta(u)
    integral = 0.0
    if G.density is not None:
        pts = sorted({p for p in (a, G.support_lower, *_cuts(F), *_cuts(G)) if u < p < b})
        integral, _ = _quad(
            lambda y: delta(y) * float(F.cdf(y)) * float(G.density(np.array([y]))[0]),
            u, b, points=pts or None, epsabs=1e-10, limit=400)
    rhs = (lhs * float(G.cdf(u)) * _cdf_below(F, u) + integral
           + sum(m * _cdf_below(F, w) * delta(w) for w, m in G.atoms if w > u))
    return abs(lhs - rhs)


def has_max_closed_form(model: RiskModel) -> bool:
    """Whether max_ruin_closed covers the model: the max algebra with a
    point-mass premium, or uniform claims and premiums both starting at 0."""
    F, G = model.claim_law, model.premium_law
    return model.algebra.kind == "max" and (
        G.family in ("point", "lom_max")
        or (F.family == G.family == "uniform" and F.params["a"] == G.params["a"] == 0.0))


def max_ruin_closed(u: float, model: RiskModel) -> RuinEstimate:
    """Closed-form max-model survival at capital u, premium steps beta * W.

    A point-mass premium delta_b holds the premium level at max(u, beta * b):
    survival is 1 iff no claim reaches it, else 0.  Claims uniform on (0, a)
    against premium steps uniform on (0, b), b = beta * b_W: survival is 1 for
    u >= a, and below a it is sqrt((1 - a/b) / (1 - u^2/(ab))) when a < b,
    else 0 (the claim walk passes every level the premiums reach).
    """
    if not has_max_closed_form(model):
        raise UnsupportedLawError("no closed form for this max-model law pair")
    _check_nonnegative(u=u)
    F, G = model.claim_law, model.premium_law
    if G.family in ("point", "lom_max"):
        level, sup = max(u, model.beta * G.params["a"]), F.support_upper
        surv = float(sup <= level and all(v != level for v, m in F.atoms if m > 0))
        return RuinEstimate(surv, 1.0 - surv, method="closed_form",
                            diagnostics={"level": level, "claim_sup": sup})
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

#: claims per block of the alpha fast path: its claim buffer holds one block
_ALPHA_BLOCK = 512


def _alpha_mc_survival(model: RiskModel, horizon: int, paths: int, seed: int) -> np.ndarray:
    """Alpha-model fast path in the z-scale: survival <=> the random walk
    sum(U_j^alpha - beta^alpha E_j) never reaches u^alpha, E_j ~ Exp(gamma).

    Each chunk draws a block of claims, then its premiums, and the block's
    running sum starts at 0: the walk is base + that sum, so a path's peak
    over the block is base + the sum's peak (rounding is monotone) and the
    next base is base + its last row.  The premiums are drawn max(1, CHUNK //
    width) rows at a time into one CHUNK-float buffer, subtracted from their
    claim rows and summed on in the same pass.  Every worker gets its claim
    and premium buffers from the calling thread, and the chunks run on up to
    nproc threads; the draws and ufuncs release the GIL.
    """
    a = model.algebra.alpha
    level = model.u**a
    beta_a = model.beta**a
    inv_gamma = 1.0 / model.premium_law.params["gamma"]
    claim = model.claim_law
    # U^alpha for a lack-of-memory claim law of the same order is Exp(g):
    # standard draws times 1/g are the bits of rng.exponential(1/g)
    if claim.family == "lom_alpha" and claim.params["alpha"] == a:
        inv_rate = 1.0 / claim.params["gamma"]

        def draw_claims(rng, out):
            rng.standard_exponential(out=out)
            out *= inv_rate
    else:
        claim_z = power_transform(claim, a)

        # sample is the quantile, value by value, of one random(n) draw, so
        # drawing CHUNK values at a time gives the bits of one sample(out.size)
        def draw_claims(rng, out):
            for k in range(0, out.size, CHUNK):
                out[k:k + CHUNK] = claim_z.sample(min(CHUNK, out.size - k), rng)

    def chunk(lo, hi, rng, bufs):
        claim_buf, premium_buf = bufs
        width = hi - lo
        rows = max(1, CHUNK // width)
        alive = np.ones(width, dtype=bool)
        base = np.zeros(width)
        peak = np.empty(width)
        for first in range(0, horizon, _ALPHA_BLOCK):
            n = min(_ALPHA_BLOCK, horizon - first)
            block = claim_buf[:n * width].reshape(n, width)
            draw_claims(rng, block.reshape(-1))
            peak.fill(-np.inf)
            for g in range(0, n, rows):
                group = block[g:g + rows]
                premiums = premium_buf[:group.size].reshape(group.shape)
                rng.standard_exponential(out=premiums)
                premiums *= inv_gamma
                premiums *= beta_a
                group -= premiums
                # the running sum row after row either way: one C loop per
                # column where the group is taller than wide, else one ufunc
                # call per row (accumulate's axis-0 loop is strided)
                if len(group) > width:
                    if g:
                        group[0] += block[g - 1]
                    np.add.accumulate(group, axis=0, out=group)
                    np.maximum(peak, group.max(axis=0), out=peak)
                else:
                    for i in range(g, g + len(group)):
                        if i:
                            np.add(block[i - 1], block[i], out=block[i])
                        np.maximum(peak, block[i], out=peak)
            peak += base
            alive &= peak < level
            base += block[-1]
            if not alive.any():
                break
        return alive

    claim_floats = min(_ALPHA_BLOCK, horizon) * min(CHUNK, paths)
    return map_chunks(chunk, paths, seed,
                      scratch=lambda: (np.empty(claim_floats), np.empty(CHUNK)))


def _paired_walk(model: RiskModel, x: np.ndarray, y: np.ndarray,
                 rng: np.random.Generator, steps: int):
    """Step the claim walk x against the premium walk y; return (x, y, ruined_at).

    ruined_at[i] is the first claim k after which y > x fails (NaN fails too),
    or steps + 1 if there is none: path i survives h <= steps claims iff
    ruined_at[i] > h.  Every step draws full-width samples, so no path's
    randomness depends on another's.  The loop stops early once no path can
    change: all are ruined, or, in the max model, every survivor is above
    the claim supremum; the returned x and y are the states at that point.
    """
    alg = model.algebra
    a_sup = model.claim_law.support_upper
    saturating = alg.kind == "max" and math.isfinite(a_sup)
    alive = np.ones(x.shape[0], dtype=bool)
    # 1 + the claims survived so far (unsigned, as narrow as steps + 1 allows)
    ruined_at = np.ones(x.shape[0], dtype=np.min_scalar_type(steps + 1))
    for _ in range(steps):
        x = apply_step_batch(alg, x, model.claim_law.sample(x.shape[0], rng), rng)
        pu = model.beta * model.premium_law.sample(x.shape[0], rng)
        y = apply_step_batch(alg, y, pu, rng)
        alive &= y > x
        ruined_at += alive
        undecided = alive & (y <= a_sup) if saturating else alive
        if not undecided.any():
            break
    ruined_at[alive] = steps + 1
    return x, y, ruined_at


def mc_ruin(model: RiskModel, horizon_claims: int = 10_000, paths: int = 100_000,
            seed: int = 0, confidence: float = 0.99) -> RuinEstimate:
    """Monte Carlo survival estimate over the first `horizon_claims` claims.

    Survival means the premium walk started at u strictly dominates the claim
    walk at every claim instant.  The finite horizon makes the estimate an
    upper bound on the infinite-horizon survival probability.
    """
    _check_integer(horizon_claims=horizon_claims, paths=paths)
    if horizon_claims < 1 or paths < 1:
        raise ParameterError("need horizon_claims >= 1 and paths >= 1")
    _check_confidence(confidence)

    def survived(lo, hi, rng):
        _, _, ruined_at = _paired_walk(model, np.zeros(hi - lo), np.full(hi - lo, float(model.u)),
                                       rng, horizon_claims)
        return ruined_at > horizon_claims

    alive = (_alpha_mc_survival(model, horizon_claims, paths, seed) if _is_alpha_model(model)
             else map_chunks(survived, paths, seed))
    survivors = int(alive.sum())
    return _mc_estimate(survivors, paths, confidence, horizon_claims,
                        upper_bound_on_survival=True)


def mc_ruin_finite_t(model: RiskModel, t: float, paths: int = 100_000,
                     seed: int = 0, confidence: float = 0.99) -> RuinEstimate:
    """Ruin by time t: survive the first N claims with N ~ Poisson(lam * t)."""
    _check_positive(t=t)
    _check_integer(paths=paths)
    if paths < 1:
        raise ParameterError("need paths >= 1")
    _check_confidence(confidence)
    _check_poisson_mean(model.lam * t)

    def survived(lo, hi, rng):
        counts = rng.poisson(model.lam * t, hi - lo)
        _, _, ruined_at = _paired_walk(model, np.zeros(hi - lo), np.full(hi - lo, float(model.u)),
                                       rng, int(counts.max(initial=0)))
        return ruined_at > counts

    survivors = int(map_chunks(survived, paths, seed).sum())
    return _mc_estimate(survivors, paths, confidence, f"t={t:g}")


def _mc_estimate(survivors: int, paths: int, confidence: float, horizon: int | str,
                 **diagnostics) -> RuinEstimate:
    """The Monte Carlo RuinEstimate for a survivor count, with its Wilson interval."""
    surv = survivors / paths
    lo_ci, hi_ci = wilson_interval(survivors, paths, confidence)
    return RuinEstimate(surv, 1.0 - surv, method="monte_carlo", horizon=horizon,
                        ci_low=lo_ci, ci_high=hi_ci, paths=paths,
                        diagnostics={"confidence": confidence, **diagnostics})


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
    _check_integer(paths_outer=paths_outer, paths_inner=paths_inner, horizon=horizon, seed=seed)
    _check_nonnegative(v=v, u=u, seed=seed)
    if paths_outer < 2 or paths_inner < 1 or horizon < 1:
        raise ParameterError("need paths_outer >= 2, paths_inner >= 1, horizon >= 1")
    _check_confidence(confidence)
    z = _normal_quantile(confidence)

    starts_v = np.full(paths_outer, float(v))
    starts_u = np.full(paths_outer, float(u))
    _, _, ruined_at = _paired_walk(model, starts_v, starts_u, np.random.default_rng([seed, 1]),
                                   horizon + 1)
    lhs = float((ruined_at > horizon + 1).mean())
    se_l = math.sqrt(max(lhs * (1.0 - lhs), 1e-12) / paths_outer)

    x1, y1, _ = _paired_walk(model, starts_v, starts_u, np.random.default_rng([seed, 2]), 1)
    cluster = np.zeros(paths_outer)
    idx = np.nonzero(y1 > x1)[0]
    if idx.size:
        # inner path i starts from outer path idx[i // paths_inner]
        live_x, live_y = x1[idx], y1[idx]

        def survived(lo, hi, rng):
            outer = np.arange(lo, hi) // paths_inner
            return _paired_walk(model, live_x[outer], live_y[outer], rng, horizon)[2] > horizon

        inner_alive = map_chunks(survived, idx.size * paths_inner, seed, width=1 << 20, key=(3,))
        cluster[idx] = inner_alive.reshape(idx.size, paths_inner).mean(axis=1)
    rhs = float(cluster.mean())
    se_r = float(cluster.std(ddof=1)) / math.sqrt(paths_outer)

    residual = lhs - rhs
    half = z * math.sqrt(se_l**2 + se_r**2)
    return RecursionCheck(lhs, rhs, residual, residual - half, residual + half)


# ---------------------------------------------------------------------------
# one entry point: which solver answers a model
# ---------------------------------------------------------------------------

def survival(model: RiskModel, us, method: str = "auto", *, horizon: int = 10_000,
             t: float | None = None, paths: int = 100_000, seed: int = 0,
             confidence: float = 0.99, steps: int = 2000) -> tuple[str, list[RuinEstimate]]:
    """The route taken and one RuinEstimate per capital in us, in order.

    "auto" picks "volterra" for the alpha-stable model, "closed" for a max
    model that has_max_closed_form covers, "ode" for any other, and "mc" for
    every other algebra or a finite horizon t.  "ode" solves the distinct
    capitals in one max_ruin_ode call, premiums dilated by beta.

    Before it routes, it checks every run option, used by the route or not:
    paths, horizon, steps and seed are integers, paths and horizon positive,
    steps >= 2, seed nonnegative, and 0 < confidence < 1.
    """
    _check_integer(paths=paths, horizon=horizon, steps=steps, seed=seed)
    _check_positive(paths=paths, horizon=horizon)
    if steps < 2:
        raise ParameterError(f"steps must be >= 2, got {steps}")
    _check_nonnegative(seed=seed)
    _check_confidence(confidence)
    kind = model.algebra.kind
    if method == "auto":
        method = ("mc" if t is not None or kind not in ("alpha_stable", "max")
                  else "volterra" if kind == "alpha_stable"
                  else "closed" if has_max_closed_form(model) else "ode")
    if method not in ("volterra", "closed", "ode", "mc"):
        raise ParameterError(f"unknown method {method!r}")
    if t is not None and method != "mc":
        raise ParameterError(f"t sets a finite horizon, which only the mc method solves; "
                             f"method {method} is infinite-horizon")
    if method in ("closed", "ode") and kind != "max":
        raise ParameterError(f"the {method} method solves the max model only")
    us = [float(u) for u in us]
    if method == "volterra":
        return method, alpha_ruin_grid(us, model, steps)
    if method == "closed":
        return method, [max_ruin_closed(u, model) for u in us]
    if method == "ode":
        caps, at = np.unique(us, return_inverse=True)
        grid = max_ruin_ode(model.claim_law, dilate(model.premium_law, model.beta), caps)
        return method, [RuinEstimate(s, 1.0 - s, method="ode", diagnostics={
            "claim_sup": model.claim_law.support_upper, "beta": model.beta})
            for s in map(float, grid.delta_values[at])]
    if t is not None:
        return method, [mc_ruin_finite_t(replace(model, u=u), t, paths=paths, seed=seed,
                                         confidence=confidence) for u in us]
    return method, [mc_ruin(replace(model, u=u), horizon_claims=horizon, paths=paths,
                            seed=seed, confidence=confidence) for u in us]
