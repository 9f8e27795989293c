"""Risk processes at claim instants and first safety conditions.

The surplus at time t compares the premium-side walk started at the initial
capital u against the claim-side walk started at 0, both driven by a common
Poisson(lambda) claim counter.  For the max algebra the natural scale is the
expectation itself; for the Kendall algebra it is the alpha-th moment, which
is lam t E U^alpha for the claim walk with steps U, because the Kendall
convolution is alpha-additive.

Where a published closed form disagrees with the Poisson-mixture definition
(sum over n of the Poisson weight times the n-step expectation), the
definition value is normative and the formula value is reported alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .convolutions import ConvolutionAlgebra
from .measures import (
    Distribution,
    ParameterError,
    QUAD_TOL,
    UnsupportedLawError,
    _check_finite,
    moment_alpha,
    power_transform,
)
# apply_step_batch is unused here; gcbench's tracer test expects risk to bind it
from .walks import _check_walk, _terminal_walk, apply_step_batch  # noqa: F401
from .williamson import KendallLawPair, kendall_pair

__all__ = [
    "RiskModel",
    "SafetyReport",
    "ValuePair",
    "mc_poisson_terminal",
    "expected_claim_side_max",
    "expected_premium_side_max",
    "safety_condition_max",
    "expected_alpha_moment_kendall_claims",
    "expected_alpha_moment_kendall_premiums",
    "safety_condition_kendall",
    "net_profit_alpha",
]


@dataclass(frozen=True)
class RiskModel:
    """Claim/premium laws with their algebra, initial capital and intensity."""

    algebra: ConvolutionAlgebra
    claim_law: Distribution
    premium_law: Distribution
    u: float = 0.0
    lam: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        _check_finite(u=self.u, lam=self.lam, beta=self.beta)
        if self.u < 0:
            raise ParameterError("initial capital must be nonnegative")
        if self.lam <= 0:
            raise ParameterError("intensity must be positive")
        if self.beta <= 0:
            raise ParameterError("premium scale must be positive")


@dataclass(frozen=True)
class ValuePair:
    """A definition-level value with the published-formula value beside it."""

    value: float
    paper_value: float

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class SafetyReport:
    margin: float
    condition_holds: bool
    t: float
    extras: dict = field(default_factory=dict)


def mc_poisson_terminal(alg: ConvolutionAlgebra, step_law: Distribution,
                        lam: float, t: float, paths: int, seed: int = 0,
                        start: float = 0.0) -> np.ndarray:
    """Terminal states X_{N(t)} with N(t) ~ Poisson(lam * t), chunk-seeded."""
    _check_finite(lam=lam, t=t)
    for name, value in (("lam", lam), ("t", t)):
        if value < 0:
            raise ParameterError(f"{name} must be nonnegative")
    _check_walk(start, paths=paths)
    return _terminal_walk(alg, step_law, paths, start, seed,
                          lambda rng, w: rng.poisson(lam * t, w))


# ---------------------------------------------------------------------------
# max algebra: expectations of the running maximum at a Poisson time
# ---------------------------------------------------------------------------

def _max_compound_expectation(law: Distribution, lt: float, floor: float) -> float:
    """E max(floor, V_1, ..., V_N) with N ~ Poisson(lt), V_i ~ law.

    The running max has CDF K(x) = exp(-lt (1 - law.cdf(x))) from floor on,
    so the expectation is floor + int_floor^sup (1 - K(x)) dx.  The quadrature
    is split at the law's lower end and its atoms, where 1 - K has a kink or
    a jump.
    """
    def tail(x: float) -> float:
        return -math.expm1(-lt * (1.0 - float(law.cdf(x))))

    hi = law.support_upper
    cuts = sorted({p for p in (law.support_lower, *(loc for loc, _ in law.atoms))
                   if floor < p < hi})
    total = floor
    for a, b in zip([floor, *cuts], [*cuts, hi]):
        if b > a:
            val, _ = integrate.quad(tail, a, b, epsabs=QUAD_TOL, limit=400)
            total += val
    return total


def expected_claim_side_max(model: RiskModel, t: float) -> float:
    """E X_t for the max-algebra claim walk at a Poisson(lam * t) time."""
    if model.algebra.kind != "max":
        raise ParameterError("claim-side expectation requires the max algebra")
    if t < 0:
        raise ParameterError("t must be nonnegative")
    return _max_compound_expectation(model.claim_law, model.lam * t, 0.0)


def expected_premium_side_max(model: RiskModel, t: float) -> ValuePair:
    """E(u v Y_t) for the max-algebra premium walk started at capital u.

    `value` is the Poisson-mixture definition; `paper_value` carries an extra
    leading lam*t factor on the atom term u*exp(-lam t (1-G(u))).
    """
    if model.algebra.kind != "max":
        raise ParameterError("premium-side expectation requires the max algebra")
    if t < 0:
        raise ParameterError("t must be nonnegative")
    lt = model.lam * t
    u = model.u
    value = _max_compound_expectation(model.premium_law, lt, u)
    atom = u * math.exp(-lt * (1.0 - float(model.premium_law.cdf(u))))
    paper_value = value + (lt - 1.0) * atom
    return ValuePair(value, paper_value)


def safety_condition_max(model: RiskModel, t: float) -> SafetyReport:
    """First safety condition E R_t > 0 in the max algebra's natural scale, beta = 1."""
    if model.beta != 1.0:
        raise UnsupportedLawError(f"safety conditions need beta = 1, got {model.beta}")
    claim = expected_claim_side_max(model, t)
    premium = expected_premium_side_max(model, t)
    margin = premium.value - claim
    return SafetyReport(
        margin=margin,
        condition_holds=margin > 0,
        t=t,
        extras={
            "claim_side": claim,
            "premium_side": premium.value,
            "premium_side_paper": premium.paper_value,
            "margin_paper": premium.paper_value - claim,
        },
    )


# ---------------------------------------------------------------------------
# Kendall algebra: alpha-th moments at a Poisson time
# ---------------------------------------------------------------------------

def expected_alpha_moment_kendall_claims(pair: KendallLawPair, lam: float, t: float) -> float:
    """E X_t^alpha for the Kendall claim walk at a Poisson(lam * t) time.

    The Kendall convolution is alpha-additive, so E X_t^alpha = lam t E U^alpha
    for steps U with the pair's law; for the lack-of-memory law
    min{(cx)^alpha, 1} this is (lam t / 2) c^(-alpha).
    """
    if lam < 0 or t < 0:
        raise ParameterError("lam and t must be nonnegative")
    if lam * t == 0.0:
        return 0.0
    return lam * t * moment_alpha(pair.dist, pair.alpha)


def expected_alpha_moment_kendall_premiums(u: float, pair: KendallLawPair,
                                           lam: float, t: float) -> ValuePair:
    """E(u (+) Y_t)^alpha for the Kendall premium walk started at capital u.

    `value` is the Poisson-mixture definition u^alpha + E Y_t^alpha and is
    normative: the Kendall convolution is alpha-additive,
    E(delta_x (+) delta_y)^alpha = x^alpha + y^alpha, so by the Markov
    property each step adds its alpha-moment to that of the start u.
    `paper_value` adds the published extra term u^alpha exp(-lam t (1-J(u))).
    """
    if u < 0:
        raise ParameterError("u must be nonnegative")
    claims = expected_alpha_moment_kendall_claims(pair, lam, t)
    ua = u ** pair.alpha
    value = ua + claims
    ju = float(pair.H(np.array([u]))[0]) if u > 0 else 0.0
    paper_value = ua * math.exp(-lam * t * (1.0 - ju)) + value
    return ValuePair(value, paper_value)


def safety_condition_kendall(model: RiskModel, t: float) -> SafetyReport:
    """Published Kendall margin u^a e^{-(lam t/2)(cu)^(-a)} + u^a.

    Requires both laws to be the same lack-of-memory family min{(cx)^a, 1};
    the cancellation of the claim side against the premium tail needs equal c.
    Unlike the module rule, `margin` carries the published formula, not the
    definition value.  The normative margin is `extras["margin_definition"]`,
    the Poisson-mixture margin (u^alpha exactly); it is the margin that
    acceptance criterion 5 checks against Monte Carlo.
    """
    if model.algebra.kind != "kendall":
        raise ParameterError("kendall safety condition requires the kendall algebra")
    if model.beta != 1.0:
        raise UnsupportedLawError(f"safety conditions need beta = 1, got {model.beta}")
    a = model.algebra.alpha
    for law in (model.claim_law, model.premium_law):
        if law.family != "lom_kendall" or law.params["alpha"] != a:
            raise UnsupportedLawError(
                "kendall safety closed form requires lack-of-memory laws of order alpha")
    c_claim = model.claim_law.params["c"]
    c_prem = model.premium_law.params["c"]
    if abs(c_claim - c_prem) > 1e-12:
        raise UnsupportedLawError("claim and premium lack-of-memory scales must match")
    c, u = c_claim, model.u
    lt = model.lam * t
    ua = u**a
    margin = ua * math.exp(-0.5 * lt * (c * u) ** (-a)) + ua if u > 0 else 0.0
    pair_claim = kendall_pair(model.claim_law, a)
    pair_prem = kendall_pair(model.premium_law, a)
    claims = expected_alpha_moment_kendall_claims(pair_claim, model.lam, t)
    premiums = expected_alpha_moment_kendall_premiums(u, pair_prem, model.lam, t)
    return SafetyReport(
        margin=margin,
        condition_holds=margin > 0,
        t=t,
        extras={
            "margin_definition": premiums.value - claims,
            "claim_side_alpha_moment": claims,
            "premium_side_alpha_moment": premiums.value,
            "premium_side_alpha_moment_paper": premiums.paper_value,
        },
    )


# ---------------------------------------------------------------------------
# alpha-stable algebra: net profit condition
# ---------------------------------------------------------------------------

def _is_alpha_model(model: RiskModel) -> bool:
    """The alpha-stable algebra with lom_alpha premiums of the algebra's order.

    Only then is the premium step beta^alpha E with E ~ Exp(gamma) in the
    z = u^alpha scale, which the net profit condition, the Volterra solver
    and the Monte Carlo fast path all assume.
    """
    return (model.algebra.kind == "alpha_stable"
            and model.premium_law.family == "lom_alpha"
            and model.premium_law.params["alpha"] == model.algebra.alpha)


def _alpha_model_scale(model: RiskModel) -> tuple[Distribution, float, float, float]:
    """(F, gamma, beta^alpha, mu) of an alpha model in the z = u^alpha scale.

    F is the law of the transformed claim U^alpha and mu = E U^alpha its mean,
    so rho = gamma * mu / beta^alpha.
    """
    if model.algebra.kind != "alpha_stable":
        raise ParameterError("the alpha model requires the alpha-stable algebra")
    if not _is_alpha_model(model):
        raise UnsupportedLawError(
            "alpha-model premiums must be the lack-of-memory law lom_alpha of the algebra's order")
    a = model.algebra.alpha
    F = power_transform(model.claim_law, a)
    return F, model.premium_law.params["gamma"], model.beta**a, moment_alpha(F, 1.0)


def net_profit_alpha(model: RiskModel) -> float:
    """rho = gamma mu_alpha / beta^alpha; ruin analytics need rho < 1."""
    _, gamma, beta_alpha, mu = _alpha_model_scale(model)
    return gamma * mu / beta_alpha
