import math
import warnings

import numpy as np
import pytest

from gcruin import convolutions as co
from gcruin import measures as me
from gcruin import risk as ri
from gcruin import ruin as ru

# alpha-stable reference configuration: Exp(1) transformed claims, gamma = 1,
# beta^alpha = 2, for which survival has the closed form 1 - 0.5 e^{-0.5 z}
GAMMA = 1.0
BETA_ALPHA = 2.0
F_EXP = me.lom_alpha(1.0, 1.0)


def alpha_oracle(z):
    return 1.0 - 0.5 * np.exp(-0.5 * np.asarray(z, dtype=float))


def alpha_model(u=0.0):
    return ri.RiskModel(co.alpha_stable(1.0), F_EXP, F_EXP, u=u, lam=1.0,
                        beta=BETA_ALPHA)


def max_model(u=0.5):
    return ri.RiskModel(co.max_algebra(), me.uniform(0, 1), me.uniform(0, 2), u=u)


# ---------------------------------------------------------------------------
# Wilson intervals
# ---------------------------------------------------------------------------

def test_wilson_interval():
    lo, hi = ru.wilson_interval(50, 100)
    assert 0.0 < lo < 0.5 < hi < 1.0
    lo0, hi0 = ru.wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0
    lo1, hi1 = ru.wilson_interval(100, 100)
    assert hi1 == 1.0 and lo1 < 1.0
    wide = ru.wilson_interval(50, 100, confidence=0.999)
    assert wide[0] < lo and wide[1] > hi
    with pytest.raises(me.ParameterError):
        ru.wilson_interval(0, 0)


# ---------------------------------------------------------------------------
# alpha model: Volterra solver
# ---------------------------------------------------------------------------

def test_volterra_matches_closed_form():
    grid = ru.alpha_ruin_volterra(F_EXP, GAMMA, BETA_ALPHA, z_max=10.0, steps=2000)
    err = np.max(np.abs(grid.delta_values - alpha_oracle(grid.z_grid)))
    assert err <= 1e-3
    assert grid.delta_values[0] == pytest.approx(0.5, abs=1e-12)  # delta(0) = 1 - rho
    assert np.all(np.diff(grid.delta_values) >= -1e-12)
    assert np.all((grid.delta_values >= 0) & (grid.delta_values <= 1))


def test_survival_grid_interpolation():
    grid = ru.alpha_ruin_volterra(F_EXP, GAMMA, BETA_ALPHA, z_max=10.0, steps=2000)
    assert grid(4.0) == pytest.approx(float(alpha_oracle(4.0)), abs=1e-3)
    np.testing.assert_allclose(grid(np.array([0.0, 10.0])),
                               [grid.delta_values[0], grid.delta_values[-1]])


def test_volterra_rejects_certain_ruin():
    # rho = gamma * mean / beta^alpha = 1 when beta^alpha = 1
    with pytest.raises(ru.CertainRuinError):
        ru.alpha_ruin_volterra(F_EXP, GAMMA, 1.0, z_max=5.0, steps=100)
    # infinite mean
    with pytest.raises(ru.CertainRuinError):
        ru.alpha_ruin_volterra(me.pareto_2alpha(0.5), GAMMA, 2.0, z_max=5.0, steps=100)


def test_volterra_resubstitution_residual():
    grid = ru.alpha_ruin_volterra(F_EXP, GAMMA, BETA_ALPHA, z_max=10.0, steps=1000)
    assert ru.volterra_residual(grid, F_EXP, GAMMA, BETA_ALPHA) <= 1e-6


def test_laplace_transform_identity():
    grid = ru.alpha_ruin_volterra(F_EXP, GAMMA, BETA_ALPHA, z_max=40.0, steps=8000)
    res = ru.alpha_ruin_laplace_check(grid, F_EXP, GAMMA, BETA_ALPHA, [0.5, 1.0, 2.0])
    assert max(res) <= 1e-3, res


def test_alpha_ruin_entry_point():
    est = ru.alpha_ruin(2.0, alpha_model())          # u^alpha = 2
    assert est.ruin == pytest.approx(0.5 * math.exp(-1.0), abs=1e-3)
    assert est.method == "volterra" and est.horizon == "infinite"
    est0 = ru.alpha_ruin(0.0, alpha_model())
    assert est0.ruin == pytest.approx(0.5, abs=1e-4)  # ruin(0) = rho
    with pytest.raises(me.ParameterError):
        ru.alpha_ruin(2.0, max_model())
    with pytest.raises(me.UnsupportedLawError):
        ru.alpha_ruin(0.0, ri.RiskModel(co.alpha_stable(1.0), F_EXP, me.uniform(0, 1)))
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(me.ParameterError):
            ru.alpha_ruin(bad, alpha_model())


def mismatched_alpha_model(u=2.0):
    # lom_alpha premiums of order 1 under the order-1.5 algebra: the premium
    # step is not beta^alpha E in the z-scale
    return ri.RiskModel(co.alpha_stable(1.5), me.lom_alpha(1.0, 1.5),
                        me.lom_alpha(1.0, 1.0), u=u, beta=2.0)


def test_alpha_ruin_rejects_premiums_of_another_order():
    with pytest.raises(me.UnsupportedLawError):
        ru.alpha_ruin_grid([0.0, 2.0], mismatched_alpha_model())
    with pytest.raises(me.UnsupportedLawError):
        ri.net_profit_alpha(mismatched_alpha_model())
    est = ru.mc_ruin(mismatched_alpha_model(), horizon_claims=200, paths=2000, seed=1)
    assert est.method == "monte_carlo" and 0.0 < est.survival < 1.0


def test_alpha_ruin_grid_equals_one_solve_per_capital():
    # u = 0, 1, 2 share z_max = 10; 2.5 and 3 get z_max = 12.5 and 15
    us = [0.0, 1.0, 2.0, 2.5, 3.0]
    ests = ru.alpha_ruin_grid(us, alpha_model(), steps=400)
    for u, est in zip(us, ests):
        z_max = max(10.0, 5.0 * u)
        grid = ru.alpha_ruin_volterra(F_EXP, GAMMA, BETA_ALPHA, z_max=z_max, steps=400)
        assert est.survival == float(grid(u))
        assert est.diagnostics["z_max"] == z_max
        assert est == ru.alpha_ruin(u, alpha_model(), steps=400)


# ---------------------------------------------------------------------------
# max model: closed forms
# ---------------------------------------------------------------------------

def test_max_ruin_ode_uniform_oracle():
    # claims uniform(0, a), premiums uniform(0, b):
    # survival(u) = sqrt((1 - a/b) / (1 - u^2 / (a b)))
    a, b = 1.0, 2.0
    us = np.array([0.0, 0.25, 0.5, 0.9])
    grid = ru.max_ruin_ode(me.uniform(0, a), me.uniform(0, b), us)
    oracle = np.sqrt((1 - a / b) / (1 - us * us / (a * b)))
    np.testing.assert_allclose(grid.delta_values, oracle, atol=1e-6)
    assert grid.delta_values[2] == pytest.approx(0.755929, abs=1e-4)


def test_max_ruin_ode_plateau_above_claim_support():
    grid = ru.max_ruin_ode(me.uniform(0, 1), me.uniform(0, 2), np.array([1.0, 5.0]))
    np.testing.assert_array_equal(grid.delta_values, [1.0, 1.0])


def test_max_ruin_ode_unbounded_claims_is_certain_ruin():
    grid = ru.max_ruin_ode(me.pareto_2alpha(1.0), me.uniform(0, 2),
                           np.array([0.0, 1.0]))
    np.testing.assert_array_equal(grid.delta_values, [0.0, 0.0])


@pytest.mark.parametrize("claim_b, want", [(2.0, [0.0, 0.0, 0.0, 0.0]),
                                           (1.0, [0.0, 0.0, 0.0, 1.0])])
def test_max_ruin_ode_premiums_below_claim_supremum(claim_b, want):
    # premium supremum 1 <= claim supremum: certain ruin below the claim
    # supremum, returned without a quadrature
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = ru.max_ruin_ode(me.uniform(0, claim_b), me.uniform(0, 1), [0.0, 0.5, 0.99, 1.5])
    np.testing.assert_array_equal(grid.delta_values, want)


def test_max_ruin_ode_rejects_atoms():
    with pytest.raises(me.UnsupportedLawError):
        ru.max_ruin_ode(me.point_mass(1.0), me.uniform(0, 2), np.array([0.0, 1.0]))


def test_max_ruin_integral_residual():
    assert ru.max_ruin_integral_residual(me.uniform(0, 1), me.uniform(0, 2), 0.25) <= 1e-4


def test_max_ruin_lom_classification():
    # premium = delta_a: survival is certain iff claims never exceed u v a
    assert ru.max_ruin_lom(0.0, 2.0, me.uniform(0, 1)).survival == 1.0
    assert ru.max_ruin_lom(0.0, 2.0, me.lom_alpha(1.0, 1.0)).survival == 0.0
    assert ru.max_ruin_lom(0.9, 0.5, me.uniform(0, 1)).survival == 0.0
    assert ru.max_ruin_lom(1.5, 0.5, me.uniform(0, 1)).survival == 1.0
    with pytest.raises(me.ParameterError):
        ru.max_ruin_lom(-1.0, 1.0, me.uniform(0, 1))


@pytest.mark.parametrize("beta", [1.5, 2.0, 3.5])
@pytest.mark.parametrize("u", [0.0, 0.25, 0.5, 0.9, 1.0, 1.5])
def test_max_ruin_closed_uniform_matches_ode(beta, u):
    # premiums beta * uniform(0, 1) are uniform(0, beta): the ODE on the dilated law
    model = ri.RiskModel(co.max_algebra(), me.uniform(0, 1), me.uniform(0, 1), beta=beta)
    closed = ru.max_ruin_closed(u, model)
    grid = ru.max_ruin_ode(model.claim_law, co.dilate(model.premium_law, beta),
                           np.array([0.0, max(u, 1e-12)]))
    assert closed.survival == pytest.approx(grid.delta_values[-1], abs=1e-6)
    assert closed.method == "closed_form"


def test_max_ruin_closed_claims_past_premiums():
    # claims uniform(0, 2) against premiums uniform(0, 1): the claim walk
    # passes every premium level below 2, and never reaches 2
    model = ri.RiskModel(co.max_algebra(), me.uniform(0, 2), me.uniform(0, 1))
    assert [ru.max_ruin_closed(u, model).survival for u in (0.0, 1.0, 1.999, 2.0, 3.0)] \
        == [0.0, 0.0, 0.0, 1.0, 1.0]


def test_max_ruin_closed_point_premium_and_coverage():
    model = ri.RiskModel(co.max_algebra(), me.uniform(0, 1), me.lom_max(0.6), beta=2.0)
    assert ru.has_max_closed_form(model)
    assert ru.max_ruin_closed(0.0, model).survival == 1.0      # 2 * 0.6 >= 1
    assert ru.max_ruin_closed(0.0, ri.RiskModel(
        co.max_algebra(), me.uniform(0, 1), me.lom_max(0.6))).survival == 0.0
    ode_only = ri.RiskModel(co.max_algebra(), me.uniform(0.5, 1), me.uniform(0, 2))
    kendall = ri.RiskModel(co.kendall(1.0), me.uniform(0, 1), me.uniform(0, 2))
    for m in (ode_only, kendall):
        assert not ru.has_max_closed_form(m)
        with pytest.raises(me.UnsupportedLawError):
            ru.max_ruin_closed(0.5, m)
    with pytest.raises(me.ParameterError):
        ru.max_ruin_closed(math.nan, max_model())


# ---------------------------------------------------------------------------
# Monte Carlo engines
# ---------------------------------------------------------------------------

def test_mc_ruin_trivial_claims_never_ruin():
    model = ri.RiskModel(co.max_algebra(), me.point_mass(0.0), me.uniform(0, 2), u=0.5)
    est = ru.mc_ruin(model, horizon_claims=50, paths=2000, seed=3)
    assert est.survival == 1.0


def test_mc_ruin_max_matches_ode():
    est = ru.mc_ruin(max_model(u=0.5), horizon_claims=400, paths=40_000, seed=3)
    assert est.ci_low <= 0.755929 <= est.ci_high
    assert est.ci_high - est.ci_low < 0.02


def test_mc_ruin_alpha_fast_path_matches_volterra():
    est = ru.mc_ruin(alpha_model(u=2.0), horizon_claims=3000, paths=30_000, seed=9)
    target = float(alpha_oracle(2.0))
    assert est.ci_low - 0.005 <= target <= est.ci_high + 0.005


def test_mc_ruin_survival_monotone_in_horizon():
    # same seed: longer horizons extend the same paths, so the survivor set
    # can only shrink
    vals = [ru.mc_ruin(max_model(u=0.5), horizon_claims=h, paths=10_000, seed=4).survival
            for h in (10, 50, 200)]
    assert vals[0] >= vals[1] >= vals[2]


def test_mc_ruin_finite_t_monotone_and_converges():
    vals = [ru.mc_ruin_finite_t(max_model(u=0.5), t, paths=20_000, seed=5).survival
            for t in (1.0, 5.0, 40.0, 200.0)]
    assert all(a >= b - 0.01 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(0.755929, abs=0.02)


def test_mc_ruin_lambda_independence():
    # the claim-count-indexed survival probability does not depend on the
    # Poisson rate: independent runs at different rates must agree
    def model(lam):
        return ri.RiskModel(co.kendall(1.0), me.lom_kendall(1.0, 1.0),
                            me.lom_kendall(1.0, 1.0), u=2.0, lam=lam)
    e1 = ru.mc_ruin(model(0.5), horizon_claims=2000, paths=20_000, seed=11)
    e2 = ru.mc_ruin(model(2.0), horizon_claims=2000, paths=20_000, seed=12)
    assert max(e1.ci_low, e2.ci_low) <= min(e1.ci_high, e2.ci_high)
    assert 0.0 < e1.survival < 1.0


def test_mc_ruin_validation():
    with pytest.raises(me.ParameterError):
        ru.mc_ruin(max_model(), horizon_claims=0)
    with pytest.raises(me.ParameterError):
        ru.mc_ruin_finite_t(max_model(), t=0.0)


# ---------------------------------------------------------------------------
# transition-operator recursion check
# ---------------------------------------------------------------------------

def test_recursion_check_trivial_claims():
    model = ri.RiskModel(co.kendall(1.0), me.point_mass(0.0),
                         me.lom_kendall(1.0, 1.0), u=1.0)
    chk = ru.kendall_lambda_recursion_check(0.0, 1.0, model, paths_outer=500,
                                            paths_inner=50, horizon=4, seed=1)
    assert chk.lhs == 1.0 and chk.rhs == 1.0 and chk.residual == 0.0


def test_recursion_check_nontrivial():
    model = ri.RiskModel(co.kendall(1.0), me.lom_kendall(1.0, 1.0),
                         me.lom_kendall(1.0, 1.0), u=2.0)
    chk = ru.kendall_lambda_recursion_check(1.0, 2.0, model, paths_outer=3000,
                                            paths_inner=200, horizon=8, seed=2)
    assert chk.ci_low <= 0.0 <= chk.ci_high
    assert 0.0 < chk.lhs < 1.0
    assert chk.residual == chk.lhs - chk.rhs


def test_recursion_check_validation():
    with pytest.raises(me.ParameterError):
        ru.kendall_lambda_recursion_check(0.0, 1.0, max_model(), paths_outer=10,
                                          paths_inner=5, horizon=2)
