import math

import numpy as np
import pytest

from gcruin import convolutions as co
from gcruin import measures as me
from gcruin import risk as ri
from gcruin import ruin as ru
from gcruin import williamson as wi


def max_model(claim=None, premium=None, u=0.5, lam=1.0):
    return ri.RiskModel(co.max_algebra(),
                        claim or me.uniform(0, 1),
                        premium or me.uniform(0, 2),
                        u=u, lam=lam)


def kendall_model(c=1.0, alpha=1.0, u=1.0, lam=1.0):
    return ri.RiskModel(co.kendall(alpha), me.lom_kendall(c, alpha),
                        me.lom_kendall(c, alpha), u=u, lam=lam)


# ---------------------------------------------------------------------------
# max algebra expectations
# ---------------------------------------------------------------------------

def test_expected_claim_side_max_against_quadrature_oracle():
    # uniform(0,1), lam t = 1: integral of x e^{-(1-x)} dx = e^{-1}
    val = ri.expected_claim_side_max(max_model(), 1.0)
    assert val == pytest.approx(math.exp(-1.0), abs=1e-10)
    assert ri.expected_claim_side_max(max_model(), 0.0) == 0.0
    # lam t large: the running maximum saturates at the support end
    assert ri.expected_claim_side_max(max_model(lam=500.0), 1.0) == pytest.approx(1.0, abs=0.01)


def test_expected_claim_side_max_vs_mc():
    val = ri.expected_claim_side_max(max_model(), 1.0)
    mc = ri.mc_poisson_terminal(co.max_algebra(), me.uniform(0, 1), 1.0, 1.0,
                                100_000, seed=4)
    se = mc.std(ddof=1) / math.sqrt(len(mc))
    assert abs(val - mc.mean()) <= 3.0 * se


def test_expected_claim_side_max_point_mass_closed_form():
    # delta_a claims: the running maximum is a once a claim has arrived
    for a in (0.3, 1.0, 2.5):
        for lam in (0.5, 1.0, 3.0):
            for t in (0.4, 1.0, 2.0):
                want = a * -math.expm1(-lam * t)
                got = ri.expected_claim_side_max(max_model(claim=me.point_mass(a), lam=lam), t)
                assert got == pytest.approx(want, abs=1e-12), (a, lam, t)


def test_claim_side_max_same_for_duplicate_atom_locations():
    split = me.table([(0.5, 0.1), (0.5, 0.2), (2.0, 0.2)], [(0.0, 0.0), (1.0, 0.25), (3.0, 0.5)])
    merged = me.table([(0.5, 0.3), (2.0, 0.2)], [(0.0, 0.0), (1.0, 0.25), (3.0, 0.5)])
    for t in (0.5, 1.0, 3.0):
        # the split CDF adds 0.1 + 0.2, which is not 0.3 in floating point
        assert (ri.expected_claim_side_max(max_model(claim=split), t)
                == pytest.approx(ri.expected_claim_side_max(max_model(claim=merged), t),
                                 abs=1e-12))


def test_safety_condition_max_accepts_the_lack_of_memory_law():
    # lom_max(1) is the point mass at 1: claim side 1 - e^{-lt}
    model = max_model(claim=me.lom_max(1.0), premium=me.uniform(0, 2), u=0.5)
    rep = ri.safety_condition_max(model, 1.0)
    assert rep.extras["claim_side"] == pytest.approx(-math.expm1(-1.0), abs=1e-12)


def test_expected_premium_side_max_point_mass_closed_form():
    # premium = delta_a, u < a: value = a(1 - e^{-lt}) + u e^{-lt}
    m = max_model(premium=me.lom_max(2.0), u=0.5, lam=1.0)
    vp = ri.expected_premium_side_max(m, 1.0)
    assert vp.value == pytest.approx(2.0 * (1 - math.exp(-1)) + 0.5 * math.exp(-1), abs=1e-12)
    # u above the premium support: the capital is never exceeded
    m = max_model(premium=me.uniform(0, 2), u=3.0)
    assert ri.expected_premium_side_max(m, 1.0).value == pytest.approx(3.0, abs=1e-10)
    # t -> 0 returns u
    assert ri.expected_premium_side_max(max_model(u=0.5), 0.0).value == pytest.approx(0.5)


def test_expected_premium_side_max_vs_mc():
    m = max_model(u=0.5)
    vp = ri.expected_premium_side_max(m, 1.0)
    mc = ri.mc_poisson_terminal(co.max_algebra(), me.uniform(0, 2), 1.0, 1.0,
                                100_000, seed=6, start=0.5)
    se = mc.std(ddof=1) / math.sqrt(len(mc))
    assert abs(vp.value - mc.mean()) <= 3.0 * se


def test_premium_side_paper_value_differs_by_lt_factor_on_atom():
    m = max_model(u=0.5, lam=2.0)
    vp = ri.expected_premium_side_max(m, 1.0)
    lt = 2.0
    atom = 0.5 * math.exp(-lt * (1.0 - float(me.uniform(0, 2).cdf(0.5))))
    assert vp.paper_value - vp.value == pytest.approx((lt - 1.0) * atom, abs=1e-12)


def test_safety_condition_max():
    # u above the claim support: premium side >= u > claim side
    rep = ri.safety_condition_max(max_model(u=3.0), 1.0)
    assert rep.condition_holds
    # no premium, nontrivial claims: the condition fails
    rep = ri.safety_condition_max(
        ri.RiskModel(co.max_algebra(), me.uniform(0, 1), me.uniform(0, 1e-9), u=0.0), 1.0)
    assert not rep.condition_holds
    # sign cross-check by MC of E R_t at u=0.5
    m = max_model(u=0.5)
    rep = ri.safety_condition_max(m, 1.0)
    claims = ri.mc_poisson_terminal(co.max_algebra(), me.uniform(0, 1), 1.0, 1.0,
                                    50_000, seed=7)
    premiums = ri.mc_poisson_terminal(co.max_algebra(), me.uniform(0, 2), 1.0, 1.0,
                                      50_000, seed=8, start=0.5)
    diff = premiums.mean() - claims.mean()
    se = math.sqrt(premiums.var(ddof=1) / len(premiums) + claims.var(ddof=1) / len(claims))
    assert abs(rep.margin - diff) <= 3.0 * se
    assert rep.condition_holds == (diff > 0)


def test_max_margin_nonincreasing_in_lambda_above_premium_support():
    # with u at/above the premium support the premium side is constant in
    # lambda while the claim side grows, so the margin is nonincreasing
    margins = [ri.safety_condition_max(max_model(u=2.0, lam=lam), 1.0).margin
               for lam in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b - 1e-12 for a, b in zip(margins, margins[1:]))


def test_premium_side_max_same_for_duplicate_atom_locations():
    # one law written with two atoms at 0.5 or with their merged atom
    split = max_model(premium=me.table([(0.5, 0.1), (0.5, 0.2), (2.0, 0.7)]), u=0.25)
    merged = max_model(premium=me.table([(0.5, 0.3), (2.0, 0.7)]), u=0.25)
    for t in (0.5, 1.0, 3.0):
        assert (ri.expected_premium_side_max(split, t)
                == ri.expected_premium_side_max(merged, t))
    # the exact value: u + (0.5 - u)(1 - e^{-lt}) + 1.5 (1 - e^{-0.7 lt}) at lt = 1
    want = 0.25 + 0.25 * -math.expm1(-1.0) + 1.5 * -math.expm1(-0.7)
    assert ri.expected_premium_side_max(split, 1.0).value == pytest.approx(want, abs=1e-12)


def _piecewise_linear_max_expectation(edges, cdf_right, slopes, lt, floor):
    """floor + int_floor^sup (1 - exp(-lt (1 - F))) dx for F linear on each
    [edges[i], edges[i+1]) with F(edges[i]) = cdf_right[i] and slope slopes[i]."""
    total = floor
    for a, b, c, s in zip(edges[:-1], edges[1:], cdf_right, slopes):
        if b <= floor:
            continue
        if a < floor:
            a, c = floor, c + s * (floor - a)
        g_a, g_b = lt * (1.0 - c), lt * (1.0 - c - s * (b - a))
        if s == 0.0:
            total += (b - a) * -math.expm1(-g_a)
        else:
            total += (b - a) - (math.exp(-g_b) - math.exp(-g_a)) / (lt * s)
    return total


@pytest.mark.parametrize("u", [0.0, 0.25, 0.75, 1.5, 2.5])
@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
def test_premium_side_max_of_knotted_table_is_exact(u, lam):
    # atoms at 0.5 and 2, continuous part with slope 0.25 on (0, 1) and 0.125 on (1, 3)
    law = me.table([(0.5, 0.3), (2.0, 0.2)], [(0.0, 0.0), (1.0, 0.25), (3.0, 0.5)])
    edges = [0.0, 0.5, 1.0, 2.0, 3.0]
    cdf_right = [0.0, 0.425, 0.55, 0.875]
    slopes = [0.25, 0.25, 0.125, 0.125]
    for x, c in zip(edges[:-1], cdf_right):
        assert float(law.cdf(x)) == pytest.approx(c, abs=1e-15)
    want = _piecewise_linear_max_expectation(edges, cdf_right, slopes, lam, u)
    got = ri.expected_premium_side_max(max_model(premium=law, u=u, lam=lam), 1.0).value
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
def test_claim_side_max_of_knotted_table_is_exact(lam):
    law = me.table([(0.5, 0.3), (2.0, 0.2)], [(0.0, 0.0), (1.0, 0.25), (3.0, 0.5)])
    want = _piecewise_linear_max_expectation([0.0, 0.5, 1.0, 2.0, 3.0], [0.0, 0.425, 0.55, 0.875],
                                             [0.25, 0.25, 0.125, 0.125], lam, 0.0)
    got = ri.expected_claim_side_max(max_model(claim=law, lam=lam), 1.0)
    assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# kendall algebra alpha-moments
# ---------------------------------------------------------------------------

def test_kendall_claims_moment_closed_form():
    pair = wi.kendall_pair(me.lom_kendall(1.0, 1.0), 1.0)
    assert ri.expected_alpha_moment_kendall_claims(pair, 2.0, 3.0) == pytest.approx(3.0)
    assert ri.expected_alpha_moment_kendall_claims(pair, 1.0, 0.0) == 0.0
    c, a = 2.0, 1.5
    pair = wi.kendall_pair(me.lom_kendall(c, a), a)
    assert ri.expected_alpha_moment_kendall_claims(pair, 1.0, 1.0) == pytest.approx(
        0.5 * c**-a)


def test_kendall_claims_moment_numeric_limit_and_mc():
    # mu = delta_1, alpha = 1: the limit equals lam t
    pair = wi.kendall_pair(me.point_mass(1.0), 1.0)
    lt = 1.5
    val = ri.expected_alpha_moment_kendall_claims(pair, 1.0, lt)
    assert val == pytest.approx(lt, abs=1e-6)
    mc = ri.mc_poisson_terminal(co.kendall(1.0), me.point_mass(1.0), 1.0, lt,
                                200_000, seed=8)
    se = mc.std(ddof=1) / math.sqrt(len(mc))
    assert abs(val - mc.mean()) <= 3.0 * se


@pytest.mark.parametrize("law, lam, t, want", [
    (me.pareto_2alpha(2.0), 0.5, 3.0, 2.0),     # E U = 4/3, tail index 4
    (me.lom_alpha(1.0, 1.0), 1.0, 2.0, 2.0),    # Exp(1) steps, E U = 1
])
def test_kendall_claims_moment_is_lam_t_times_step_moment(law, lam, t, want):
    pair = wi.kendall_pair(law, 1.0)
    got = ri.expected_alpha_moment_kendall_claims(pair, lam, t)
    assert got == pytest.approx(want, rel=1e-9)
    assert got == lam * t * me.moment_alpha(law, 1.0)


def test_kendall_claims_moment_point_mass_is_exact():
    pair = wi.kendall_pair(me.point_mass(1.0), 1.0)
    assert ri.expected_alpha_moment_kendall_claims(pair, 0.5, 3.0) == 1.5


def test_kendall_claims_moment_divergence():
    # a claim law without a finite alpha-moment diverges
    pair = wi.kendall_pair(me.pareto_2alpha(0.5), 1.0)
    assert ri.expected_alpha_moment_kendall_claims(pair, 1.0, 1.0) == math.inf


@pytest.mark.parametrize("lam, t", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)])
def test_kendall_claims_moment_rejects_non_finite_lam_and_t(lam, t):
    pair = wi.kendall_pair(me.lom_kendall(1.0, 1.0), 1.0)
    with pytest.raises(me.ParameterError, match="must be finite"):
        ri.expected_alpha_moment_kendall_claims(pair, lam, t)


@pytest.mark.parametrize("side", [ri.expected_claim_side_max, ri.expected_premium_side_max,
                                  ri.safety_condition_max])
@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_max_expectations_reject_non_finite_t(side, t):
    with pytest.raises(me.ParameterError, match="^t must be finite"):
        side(max_model(), t)


@pytest.mark.parametrize("lam, t", [(1.0, math.nan), (1.0, math.inf), (1e10, 1e10), (1.0, 1e300)])
def test_poisson_terminal_rejects_counts_past_the_sampler_range(lam, t):
    # a bare numpy ValueError would not match: ParameterError is raised before any draw
    with pytest.raises(me.ParameterError):
        ri.mc_poisson_terminal(co.max_algebra(), me.uniform(0, 1), lam, t, 3)


def test_poisson_mean_check_matches_the_sampler_edge():
    from gcruin.walks import _POISSON_MEAN_MAX, _check_poisson_mean

    rng = np.random.default_rng(0)
    _check_poisson_mean(_POISSON_MEAN_MAX)
    rng.poisson(_POISSON_MEAN_MAX)
    over = float(np.nextafter(_POISSON_MEAN_MAX, math.inf))
    with pytest.raises(me.ParameterError, match="Poisson sampler"):
        _check_poisson_mean(over)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(over)


def test_kendall_premiums_moment():
    pair = wi.kendall_pair(me.lom_kendall(1.0, 1.0), 1.0)
    vp = ri.expected_alpha_moment_kendall_premiums(2.0, pair, 1.0, 2.0)
    # Poisson-mixture definition: u^a + lam t c^-a / 2
    assert vp.value == pytest.approx(3.0)
    # published formula adds u^a e^{-lam t (1 - J(u))}
    assert vp.paper_value == pytest.approx(3.0 + 2.0 * math.exp(-0.5), abs=1e-12)
    # u = 0 reduces to the claim-side moment
    assert ri.expected_alpha_moment_kendall_premiums(0.0, pair, 1.0, 2.0).value == \
        pytest.approx(ri.expected_alpha_moment_kendall_claims(pair, 1.0, 2.0))
    # lam t -> 0: the definition value is u^a
    assert ri.expected_alpha_moment_kendall_premiums(2.0, pair, 1.0, 0.0).value == \
        pytest.approx(2.0)


def test_kendall_premiums_definition_matches_mc():
    pair = wi.kendall_pair(me.lom_kendall(1.0, 1.0), 1.0)
    u, lam, t = 2.0, 1.0, 2.0
    vp = ri.expected_alpha_moment_kendall_premiums(u, pair, lam, t)
    mc = ri.mc_poisson_terminal(co.kendall(1.0), me.lom_kendall(1.0, 1.0), lam, t,
                                400_000, seed=12, start=u)
    se = mc.std(ddof=1) / math.sqrt(len(mc))
    assert abs(vp.value - mc.mean()) <= 3.0 * se


def test_safety_condition_kendall_values():
    rep = ri.safety_condition_kendall(kendall_model(u=1.0, lam=2.0), 1.0)
    assert rep.margin == pytest.approx(math.exp(-1.0) + 1.0, abs=1e-12)
    assert rep.condition_holds
    rep0 = ri.safety_condition_kendall(kendall_model(u=0.0, lam=2.0), 1.0)
    assert rep0.margin == 0.0 and not rep0.condition_holds
    # the Poisson-mixture margin is u^alpha exactly (claim sides cancel)
    assert rep.extras["margin_definition"] == pytest.approx(1.0)


def test_safety_condition_kendall_rejects_mismatched_scales():
    model = ri.RiskModel(co.kendall(1.0), me.lom_kendall(1.0, 1.0),
                         me.lom_kendall(2.0, 1.0), u=1.0)
    with pytest.raises(me.UnsupportedLawError):
        ri.safety_condition_kendall(model, 1.0)
    model = ri.RiskModel(co.kendall(1.0), me.uniform(0, 1), me.lom_kendall(1.0, 1.0), u=1.0)
    with pytest.raises(me.UnsupportedLawError):
        ri.safety_condition_kendall(model, 1.0)


def test_safety_conditions_reject_scaled_premiums():
    # the closed forms read premium_law as the premium step; beta would change the model
    m = max_model()
    with pytest.raises(me.UnsupportedLawError, match="beta"):
        ri.safety_condition_max(ri.RiskModel(m.algebra, m.claim_law, m.premium_law,
                                             u=m.u, beta=2.0), 1.0)
    k = kendall_model()
    with pytest.raises(me.UnsupportedLawError, match="beta"):
        ri.safety_condition_kendall(ri.RiskModel(k.algebra, k.claim_law, k.premium_law,
                                                 u=k.u, beta=0.5), 1.0)


def test_kendall_margin_nonincreasing_in_lambda():
    margins = [ri.safety_condition_kendall(kendall_model(u=2.0, lam=lam), 1.0).margin
               for lam in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b - 1e-12 for a, b in zip(margins, margins[1:]))


def test_kendall_margin_dilation_identity():
    # margin(u, c) = c^-alpha margin(u c, 1) for every alpha
    for alpha in (1.0, 1.7):
        for c in (0.5, 2.0):
            for u in (0.7, 3.0):
                m1 = ri.safety_condition_kendall(
                    kendall_model(c=c, alpha=alpha, u=u, lam=1.3), 1.0).margin
                m2 = ri.safety_condition_kendall(
                    kendall_model(c=1.0, alpha=alpha, u=u * c, lam=1.3), 1.0).margin
                assert m1 == pytest.approx(m2 * c**-alpha, rel=1e-12)


# ---------------------------------------------------------------------------
# alpha model: net profit condition
# ---------------------------------------------------------------------------

def test_net_profit_alpha():
    # mu with mu_alpha = 1, gamma = 1, beta^alpha = 2 -> rho = 0.5
    model = ri.RiskModel(co.alpha_stable(1.0), me.lom_alpha(1.0, 1.0),
                         me.lom_alpha(1.0, 1.0), beta=2.0)
    assert ri.net_profit_alpha(model) == pytest.approx(0.5, abs=1e-9)
    heavy = ri.RiskModel(co.alpha_stable(1.0), me.pareto_2alpha(0.5),
                         me.lom_alpha(1.0, 1.0), beta=2.0)
    assert ri.net_profit_alpha(heavy) == math.inf
    bad = ri.RiskModel(co.alpha_stable(1.0), me.lom_alpha(1.0, 1.0), me.uniform(0, 1))
    with pytest.raises(me.UnsupportedLawError):
        ri.net_profit_alpha(bad)


def test_net_profit_alpha_is_the_volterra_rho():
    # gamma and beta away from powers of two, so any second formula shows
    for alpha, gamma, beta in ((0.7, 1.0, 2.0), (1.0, 0.3, 3.0), (1.5, 0.7, 1.9)):
        law = me.lom_alpha(gamma, alpha)
        model = ri.RiskModel(co.alpha_stable(alpha), law, law, beta=beta)
        est = ru.alpha_ruin(1.0, model, steps=100)
        assert ri.net_profit_alpha(model) == est.diagnostics["rho"]


def test_risk_model_non_finite_message():
    for name in ("u", "lam", "beta"):
        with pytest.raises(me.ParameterError, match=f"^{name} must be finite, got nan$"):
            ri.RiskModel(co.max_algebra(), me.uniform(0, 1), me.uniform(0, 1),
                         **{name: math.nan})


def test_risk_model_validation():
    with pytest.raises(me.ParameterError):
        ri.RiskModel(co.max_algebra(), me.uniform(0, 1), me.uniform(0, 1), u=-1.0)
    with pytest.raises(me.ParameterError):
        ri.RiskModel(co.max_algebra(), me.uniform(0, 1), me.uniform(0, 1), lam=0.0)
    # mc_poisson_terminal: lam and t may be 0 but not negative or non-finite,
    # and the start must be finite and nonnegative
    alg, law = co.kendall(1.0), me.uniform(0, 1)
    for kwargs, message in (({"lam": -1.0}, "^lam must be nonnegative, got -1.0$"),
                            ({"lam": math.nan}, "^lam must be finite, got nan$"),
                            ({"t": -0.5}, "^t must be nonnegative, got -0.5$"),
                            ({"t": math.inf}, "^t must be finite, got inf$"),
                            ({"start": -1.0}, "^start must be nonnegative, got -1.0$"),
                            ({"start": math.nan}, "^start must be finite, got nan$"),
                            ({"seed": -1}, "^seed must be nonnegative, got -1$")):
        args = {"lam": 1.0, "t": 1.0, "paths": 3, **kwargs}
        with pytest.raises(me.ParameterError, match=message):
            ri.mc_poisson_terminal(alg, law, **args)
    # the Kendall premium-side moment: the capital u must be finite
    pair = wi.kendall_pair(me.lom_kendall(1.0, 1.0), 1.0)
    for u in (math.nan, math.inf):
        with pytest.raises(me.ParameterError, match=f"^u must be finite, got {u}$"):
            ri.expected_alpha_moment_kendall_premiums(u, pair, 1.0, 1.0)
    for lam, t in ((0.0, 1.0), (1.0, 0.0)):
        got = ri.mc_poisson_terminal(alg, law, lam, t, 3, start=0.5)
        np.testing.assert_array_equal(got, np.full(3, 0.5))
