import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gcruin import convolutions as co
from gcruin import measures as me
from gcruin import risk as ri
from gcruin import ruin as ru
from gcruin import walks as wa

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
    with pytest.raises(me.ParameterError, match="successes"):
        ru.wilson_interval(5, 3)
    with pytest.raises(me.ParameterError, match="^n must be an integer, got 10.5$"):
        ru.wilson_interval(5, 10.5)
    with pytest.raises(me.ParameterError, match="^successes must be an integer, got 5.0$"):
        ru.wilson_interval(5.0, 10)
    assert all(type(b) is float for b in (lo, hi, lo0, hi0, lo1, hi1, *wide))
    est = ru.mc_ruin(max_model(), horizon_claims=5, paths=100, seed=1)
    assert type(est.ci_low) is float and type(est.ci_high) is float


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


def test_volterra_residual_is_the_trapezoid_rule_at_every_node():
    grid = ru.alpha_ruin_volterra(F_EXP, GAMMA, BETA_ALPHA, z_max=5.0, steps=40)
    z, d = grid.z_grid, grid.delta_values
    h, q = z[1] - z[0], GAMMA / BETA_ALPHA
    rho = GAMMA * me.moment_alpha(F_EXP, 1.0) / BETA_ALPHA
    k = 1.0 - F_EXP.cdf(z)
    worst = abs(d[0] - (1.0 - rho))
    for i in range(1, len(z)):
        terms = [k[i - j] * d[j] for j in range(i + 1)]
        integral = h * (sum(terms) - 0.5 * terms[0] - 0.5 * terms[-1])
        worst = max(worst, abs(d[i] - (1.0 - rho + q * integral)))
    assert ru.volterra_residual(grid, F_EXP, GAMMA, BETA_ALPHA) == pytest.approx(worst, abs=1e-15)


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


def test_alpha_ruin_takes_no_z_max():
    # the grid end is always max(10, 5 u^alpha); only alpha_ruin_volterra takes z_max
    with pytest.raises(TypeError):
        ru.alpha_ruin(1.0, alpha_model(), z_max=20.0)
    with pytest.raises(TypeError):
        ru.alpha_ruin_grid([1.0], alpha_model(), z_max=20.0)


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


def test_max_ruin_ode_solves_atoms():
    # point claims at 1 against uniform(0, 2) premiums: a claim equal to the
    # premium level ruins, so every level up to 1 survives iff the first
    # premium beats 1, with probability 1/2
    grid = ru.max_ruin_ode(me.point_mass(1.0), me.uniform(0, 2), [0.0, 0.5, 1.0, 1.5])
    np.testing.assert_allclose(grid.delta_values, [0.5, 0.5, 0.5, 1.0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("claims, premiums, u, want", [
    # claims 1/2 or 1, premiums uniform(0, 1.5): from 0 the walk survives the
    # atom at 1/2 with probability 5/6 and then the atom at 1 with 1/2
    (me.table([(0.5, 0.5), (1.0, 0.5)]), me.uniform(0, 1.5), 0.0, 5.0 / 12.0),
    (me.table([(0.5, 0.5), (1.0, 0.5)]), me.uniform(0, 1.5), 0.7, 0.5),
    # point claims at c against uniform(0, b): 1 - c/b up to c
    (me.point_mass(0.75), me.uniform(0, 3), 0.0, 0.75),
    (me.point_mass(0.75), me.uniform(0, 3), 0.75, 0.75),
    (me.point_mass(0.75), me.uniform(0.5, 3), 0.6, 0.9),
    # premium supremum at the claim atom: certain ruin up to it
    (me.point_mass(1.0), me.uniform(0, 1), 1.0, 0.0),
])
def test_max_ruin_ode_matches_atom_closed_forms(claims, premiums, u, want):
    assert ru.max_ruin_ode(claims, premiums, [u]).delta_values[0] == pytest.approx(want, abs=1e-12)
    assert ru.max_ruin_integral_residual(claims, premiums, u) < 1e-9


def test_max_ruin_integral_residual():
    assert ru.max_ruin_integral_residual(me.uniform(0, 1), me.uniform(0, 2), 0.25) <= 1e-4


def max_pair(claims, premiums, beta=1.0):
    return ri.RiskModel(co.max_algebra(), claims, premiums, beta=beta)


def test_max_point_premium_classification():
    # premium = delta_b: survival is certain iff no claim reaches u v b, in the
    # closed form and in the product integral alike
    for u, b, claims, want in [(0.0, 2.0, me.uniform(0, 1), 1.0),
                               (0.0, 2.0, me.lom_alpha(1.0, 1.0), 0.0),
                               (0.9, 0.5, me.uniform(0, 1), 0.0),
                               (1.5, 0.5, me.uniform(0, 1), 1.0)]:
        assert ru.max_ruin_closed(u, max_pair(claims, me.lom_max(b))).survival == want
        assert ru.max_ruin_ode(claims, me.point_mass(b), [u]).delta_values[0] == want
    with pytest.raises(me.ParameterError):
        ru.max_ruin_closed(-1.0, max_pair(me.uniform(0, 1), me.lom_max(1.0)))
    with pytest.raises(me.ParameterError):
        ru.max_ruin_ode(me.uniform(0, 1), me.point_mass(1.0), [-1.0])


def test_max_point_premium_decides_by_the_claim_supremum():
    # unbounded claims ruin at every level, even where the cdf rounds to 1
    lom = me.lom_alpha(1.0, 1.0)
    assert float(lom.cdf(40.0)) == 1.0
    est = ru.max_ruin_closed(0.0, max_pair(lom, me.lom_max(40.0)))
    assert est.survival == 0.0 and est.diagnostics["claim_sup"] == math.inf
    assert ru.max_ruin_ode(lom, me.point_mass(40.0), [0.0]).delta_values[0] == 0.0
    # no claim exceeds 2, though the table's total mass is 1 - 5e-11, but the
    # atom at 2 equals the premium level, and a claim equal to it ruins
    tab = me.table([(0.5, 0.5), (2.0, 0.5 - 5e-11)])
    est = ru.max_ruin_closed(0.0, max_pair(tab, me.lom_max(2.0)))
    assert est.survival == 0.0 and est.diagnostics["claim_sup"] == 2.0
    assert ru.max_ruin_ode(tab, me.point_mass(2.0), [0.0]).delta_values[0] == 0.0
    # a zero-mass atom at 5 is no claim
    tab = me.table([(0.5, 1.0), (5.0, 0.0)])
    assert ru.max_ruin_closed(0.0, max_pair(tab, me.lom_max(2.0))).survival == 1.0
    assert ru.max_ruin_ode(tab, me.point_mass(2.0), [0.0]).delta_values[0] == 1.0


def test_max_point_premium_claim_at_the_level_ruins():
    # claims 1/2 or 2 against premium steps delta_2: the first claim of 2 ties
    # the premium level, and a tie is ruin (y > x fails)
    claims = me.table([(0.5, 0.5), (2.0, 0.5)])
    for u, want in [(0.0, 0.0), (2.0, 0.0), (2.5, 1.0)]:
        model = ri.RiskModel(co.max_algebra(), claims, me.lom_max(2.0), u=u)
        assert ru.max_ruin_closed(u, model).survival == want
        assert ru.max_ruin_ode(claims, me.point_mass(2.0), [u]).delta_values[0] == want
        assert ru.mc_ruin(model, horizon_claims=200, paths=2000, seed=3).survival == want


POINT_PREMIUM_CLAIMS = {
    "uniform": me.uniform(0, 1), "uniform_half": me.uniform(0.5, 1.5),
    "point": me.point_mass(1.0), "lom_alpha": me.lom_alpha(1.0, 1.0),
    "atoms": me.table([(0.5, 0.5), (1.0, 0.5)]),
    "mixed": me.table([(0.5, 0.3), (1.0, 0.2)], [(0.0, 0.0), (1.0, 0.5)]),
}


@pytest.mark.parametrize("claims", POINT_PREMIUM_CLAIMS.values(), ids=POINT_PREMIUM_CLAIMS.keys())
@pytest.mark.parametrize("beta", [1.0, 2.5])
def test_max_ruin_ode_on_a_point_premium_is_the_closed_form(claims, beta):
    # premium steps beta * delta_b hold the level at max(u, beta b)
    for b in (0.2, 0.4, 0.5, 0.6, 1.0):
        model = max_pair(claims, me.point_mass(b), beta)
        for u in (0.0, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0):
            grid = ru.max_ruin_ode(claims, co.dilate(me.point_mass(b), beta), [u])
            assert grid.delta_values[0] == ru.max_ruin_closed(u, model).survival


#: claim and premium tables with atoms in both, each premium law with mass
#: above the claim supremum, so every Monte Carlo path is decided early
TABLE_PAIRS = {
    "atoms_and_slopes": (me.table([(0.5, 0.3), (1.0, 0.2)], [(0.0, 0.0), (1.0, 0.5)]),
                         me.table([(0.8, 0.25)], [(0.0, 0.0), (2.0, 0.75)]), 0.0),
    "offset_slopes": (me.table([(0.3, 0.4), (0.9, 0.3)], [(0.2, 0.0), (1.0, 0.3)]),
                      me.table([(0.5, 0.3), (1.5, 0.2)], [(0.0, 0.0), (2.0, 0.5)]), 0.4),
    "shared_atom": (me.table([(0.5, 0.5), (1.0, 0.5)]),
                    me.table([(0.25, 0.2), (1.0, 0.3), (1.5, 0.5)]), 0.0),
}


@pytest.mark.parametrize("name", list(TABLE_PAIRS))
def test_max_ruin_ode_table_pairs_match_mc(name):
    claims, premiums, u = TABLE_PAIRS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = float(ru.max_ruin_ode(claims, premiums, [u]).delta_values[0])
        assert ru.max_ruin_integral_residual(claims, premiums, u) < 1e-9
    est = ru.mc_ruin(ri.RiskModel(co.max_algebra(), claims, premiums, u=u),
                     horizon_claims=400, paths=20_000, seed=7)
    assert est.ci_low <= exact <= est.ci_high


@pytest.mark.parametrize("s", [2.0, 0.7])
def test_max_ruin_ode_is_scale_free_on_tables(s):
    # the solver cuts its quadrature at both laws' knots, so dilating both
    # laws and the capital by s leaves the survival where it was
    claims = me.table([], [(0.375, 0.0), (0.5, 0.492), (1.0, 1.0)])
    premiums = me.table([(0.75, 0.5)], [(0.0, 0.0), (2.5, 0.5)])
    u = 0.2885
    base = ru.max_ruin_ode(claims, premiums, [u]).delta_values[0]
    scaled = ru.max_ruin_ode(co.dilate(claims, s), co.dilate(premiums, s), [s * u])
    assert scaled.delta_values[0] == pytest.approx(base, abs=1e-15)


def test_dilated_and_powered_tables_keep_their_knots():
    t = me.table([(0.75, 0.5)], [(0.0, 0.0), (1.0, 0.2), (2.5, 0.5)])
    assert t.knots == (0.0, 1.0, 2.5)
    assert me.power_transform(t, 1.5).knots == tuple(k**1.5 for k in t.knots)
    assert co.dilate(t, 3.0).knots == tuple(3.0 * k for k in t.knots)


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


@pytest.mark.parametrize("claims", [F_EXP, me.uniform(0.0, 1.0)], ids=["lom_alpha", "uniform"])
def test_mc_ruin_alpha_fast_path_does_not_depend_on_the_cpu_count(monkeypatch, claims):
    model = ri.RiskModel(co.alpha_stable(1.0), claims, F_EXP, u=1.0, beta=BETA_ALPHA)
    got = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(wa.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        got[len(cpus)] = ru.mc_ruin(model, horizon_claims=40, paths=3 * wa.CHUNK + 5, seed=8)
    assert got[1].survival.hex() == got[2].survival.hex()
    assert got[1] == got[2]


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


def test_mc_ruin_validation(monkeypatch):
    with pytest.raises(me.ParameterError):
        ru.mc_ruin(max_model(), horizon_claims=0)
    with pytest.raises(me.ParameterError):
        ru.mc_ruin_finite_t(max_model(), t=0.0)
    with pytest.raises(me.ParameterError, match="^seed must be nonnegative, got -1$"):
        ru.mc_ruin(max_model(), horizon_claims=2, paths=3, seed=-1)

    # a bad confidence is rejected before the first chunk is simulated
    def no_draws(*args, **kwargs):
        raise AssertionError("simulated before checking confidence")

    monkeypatch.setattr(ru, "map_chunks", no_draws)
    for confidence in (1.5, 0.0, math.nan):
        with pytest.raises(me.ParameterError, match="^confidence must lie in"):
            ru.mc_ruin(max_model(), horizon_claims=2, paths=3, confidence=confidence)
        with pytest.raises(me.ParameterError, match="^confidence must lie in"):
            ru.mc_ruin_finite_t(max_model(), t=1.0, paths=3, confidence=confidence)


@pytest.mark.parametrize("lam, t", [(1.0, math.nan), (1.0, math.inf), (1e10, 1e10)])
def test_mc_ruin_finite_t_rejects_counts_past_the_sampler_range(lam, t):
    model = ri.RiskModel(co.max_algebra(), me.uniform(0, 1), me.uniform(0, 2), lam=lam)
    # a bare numpy ValueError would not match: ParameterError is raised before any draw
    with pytest.raises(me.ParameterError):
        ru.mc_ruin_finite_t(model, t=t, paths=3)


def kendall_lom_model(u=1.0):
    return ri.RiskModel(co.kendall(1.0), KENDALL_LOM, KENDALL_LOM, u=u)


@pytest.mark.parametrize("call, message", [
    (lambda: ru.mc_ruin(max_model(), horizon_claims=math.nan),
     "^horizon_claims must be an integer"),
    (lambda: ru.mc_ruin(max_model(), horizon_claims=2.0), "^horizon_claims must be an integer"),
    (lambda: ru.mc_ruin(max_model(), horizon_claims=2, paths=10.5), "^paths must be an integer"),
    (lambda: ru.mc_ruin_finite_t(max_model(), t=1.0, paths=math.inf), "^paths must be an integer"),
    (lambda: ru.kendall_lambda_recursion_check(0.0, 1.0, kendall_lom_model(), paths_outer=10.5),
     "^paths_outer must be an integer"),
    (lambda: ru.kendall_lambda_recursion_check(0.0, 1.0, kendall_lom_model(), horizon=math.nan),
     "^horizon must be an integer"),
    (lambda: ru.alpha_ruin(1.0, alpha_model(), steps=math.nan), "^steps must be an integer"),
    (lambda: ru.alpha_ruin_volterra(F_EXP, GAMMA, BETA_ALPHA, steps=10.5),
     "^steps must be an integer"),
    (lambda: wa.simulate_terminal(co.kendall(1.0), KENDALL_LOM, math.nan, 3),
     "^n must be an integer"),
    (lambda: wa.simulate_terminal(co.kendall(1.0), KENDALL_LOM, 2, 3.0),
     "^paths must be an integer"),
    (lambda: wa.simulate_paths(co.kendall(1.0), KENDALL_LOM, math.inf, 3),
     "^n must be an integer"),
    (lambda: ri.mc_poisson_terminal(co.kendall(1.0), KENDALL_LOM, 1.0, 1.0, paths=math.nan),
     "^paths must be an integer"),
    # integers out of range keep their messages
    (lambda: ru.mc_ruin(max_model(), horizon_claims=0),
     "^need horizon_claims >= 1 and paths >= 1$"),
    (lambda: ru.mc_ruin_finite_t(max_model(), t=1.0, paths=0), "^need paths >= 1$"),
    (lambda: ru.kendall_lambda_recursion_check(0.0, 1.0, kendall_lom_model(), horizon=0),
     "^need paths_outer >= 2, paths_inner >= 1, horizon >= 1$"),
    (lambda: ru.alpha_ruin(1.0, alpha_model(), steps=1), "^need steps >= 2$"),
    (lambda: wa.simulate_terminal(co.kendall(1.0), KENDALL_LOM, -1, 3), "^n must be >= 0$"),
    (lambda: wa.simulate_terminal(co.kendall(1.0), KENDALL_LOM, 2, 0), "^paths must be >= 1$"),
], ids=["mc_horizon_nan", "mc_horizon_float", "mc_paths_half", "finite_t_paths_inf",
        "recursion_paths_outer_half", "recursion_horizon_nan", "alpha_steps_nan",
        "volterra_steps_half", "terminal_n_nan", "terminal_paths_float", "simulate_n_inf",
        "poisson_paths_nan", "mc_horizon_0", "finite_t_paths_0", "recursion_horizon_0",
        "alpha_steps_1", "terminal_n_negative", "terminal_paths_0"])
def test_run_sizes_are_checked_before_any_draw(call, message, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("simulated before checking the run size")

    monkeypatch.setattr(wa, "map_chunks", no_draws)
    monkeypatch.setattr(ru, "map_chunks", no_draws)
    with pytest.raises(me.ParameterError, match=message):
        call()


def no_chunk(lo, hi, rng):
    raise AssertionError("chunk run before the seed was checked")


@pytest.mark.parametrize("call", [
    lambda: me.uniform(0, 1).sample(3, 1.5),
    lambda: me.uniform(0, 1).sample(3, math.nan),
    lambda: wa.map_chunks(no_chunk, 5, 1.5),
    lambda: wa.simulate_terminal(co.kendall(1.0), KENDALL_LOM, 2, 3, seed=2.5),
    lambda: wa.simulate_paths(co.kendall(1.0), KENDALL_LOM, 2, 3, seed=2.0),
    lambda: ru.mc_ruin(max_model(), horizon_claims=2, paths=3, seed=1.5),
    lambda: ru.kendall_lambda_recursion_check(0.0, 1.0, kendall_lom_model(), paths_outer=10,
                                              paths_inner=5, horizon=2, seed=1.5),
], ids=["sample", "sample_nan", "map_chunks", "terminal", "simulate", "mc_ruin", "recursion"])
def test_seeds_must_be_integers(call):
    with pytest.raises(me.ParameterError, match="^seed must be an integer, got"):
        call()


#: one model per paired-walk survival route: Kendall, saturating max (early
#: stop above the claim supremum) and Kendall-type; each with its horizon H
ONE_WALK_MODELS = {
    "kendall": (ri.RiskModel(co.kendall(1.0), me.lom_kendall(1.0, 1.0), me.lom_kendall(1.0, 1.0),
                             u=2.0, beta=4.0), 20),
    "max": (ri.RiskModel(co.max_algebra(), me.uniform(0, 1), me.uniform(0, 2), u=0.5), 50),
    "kendall_type": (ri.RiskModel(co.kendall_type(3.0), me.uniform(0, 1), me.uniform(0, 2),
                                  u=1.0), 3),
}


@pytest.mark.parametrize("name", sorted(ONE_WALK_MODELS))
def test_one_walk_gives_every_shorter_horizon(name):
    # one chunk: mc_ruin draws it from default_rng([seed, 0])
    model, horizon = ONE_WALK_MODELS[name]
    paths, seed = 3000, 5
    _, _, ruined_at = ru._paired_walk(model, np.zeros(paths), np.full(paths, model.u),
                                      np.random.default_rng([seed, 0]), horizon)
    survivors = [int((ruined_at > h).sum()) for h in range(1, horizon + 1)]
    assert survivors == [round(ru.mc_ruin(model, h, paths, seed).survival * paths)
                         for h in range(1, horizon + 1)]
    assert survivors[0] > survivors[-1] > 0


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


def test_recursion_check_interval_is_python_floats():
    # bounds pinned from numpy.float64 z = special.ndtri(0.5 + confidence / 2);
    # the Python-float quantile gives the same bits
    from scipy import special

    model = ri.RiskModel(co.kendall(1.0), KENDALL_LOM, KENDALL_LOM, u=2.0)
    pinned = {0.9: (-0.0034597269996457167, 0.08695972699964585),
              0.99: (-0.02904811705006448, 0.11254811705006461)}
    for confidence, bounds in pinned.items():
        z = ru._normal_quantile(confidence)
        assert type(z) is float and z == special.ndtri(0.5 + confidence / 2.0)
        chk = ru.kendall_lambda_recursion_check(1.0, 2.0, model, paths_outer=400, paths_inner=20,
                                                horizon=4, seed=2, confidence=confidence)
        assert (chk.lhs, chk.rhs, chk.residual) == (0.605, 0.5632499999999999, 0.041750000000000065)
        assert (chk.ci_low, chk.ci_high) == bounds
        assert all(type(v) is float for v in (chk.lhs, chk.rhs, chk.residual, chk.ci_low,
                                              chk.ci_high))


def test_recursion_check_validation():
    with pytest.raises(me.ParameterError):
        ru.kendall_lambda_recursion_check(0.0, 1.0, max_model(), paths_outer=10,
                                          paths_inner=5, horizon=2)
    model = ri.RiskModel(co.kendall(1.0), KENDALL_LOM, KENDALL_LOM, u=1.0)
    for kwargs in ({"confidence": 1.5}, {"confidence": math.nan}, {"seed": -1}):
        with pytest.raises(me.ParameterError):
            ru.kendall_lambda_recursion_check(0.0, 1.0, model, paths_outer=10, paths_inner=5,
                                              horizon=2, **kwargs)


@pytest.mark.parametrize("claims", [F_EXP, me.uniform(0.0, 1.0)], ids=["lom_alpha", "uniform"])
def test_mc_ruin_alpha_fast_path_memory_is_its_claim_buffers(monkeypatch, claims):
    # two workers, each with one 64 x CHUNK claim buffer (8 MiB); no claim or
    # premium block of that size is allocated besides them, so the peak stays
    # below the buffers plus half of one
    monkeypatch.setattr(wa.os, "sched_getaffinity", lambda pid: {0, 1})
    model = ri.RiskModel(co.alpha_stable(1.0), claims, F_EXP, u=1.0, beta=BETA_ALPHA)
    tracemalloc.start()
    try:
        ru.mc_ruin(model, horizon_claims=64, paths=2 * wa.CHUNK, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 64 * wa.CHUNK * 8
    assert peak < 2 * block + block // 2


def test_recursion_check_memory_does_not_grow_with_the_inner_paths():
    # about 1e6 inner paths in one 2^20-path chunk, walked in CHUNK-row blocks:
    # the traced peak is the output's bytes, not 1e6-wide starts and steps
    model = kendall_lom_model()
    tracemalloc.start()
    try:
        ru.kendall_lambda_recursion_check(1.0, 3.0, model, paths_outer=2000, paths_inner=512,
                                          horizon=4, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


KENDALL_LOM = me.lom_kendall(1.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda: ru.max_ruin_closed(math.nan, max_pair(me.uniform(0, 1), me.lom_max(1.0))),
    lambda: ru.max_ruin_closed(1.0, max_pair(me.uniform(0, 1), me.lom_max(math.inf))),
    lambda: ru.max_ruin_ode(me.uniform(0, 1), me.point_mass(1.0), [math.nan]),
    lambda: ru.max_ruin_ode(me.uniform(0, 1), me.point_mass(math.inf), [1.0]),
    lambda: ru.max_ruin_ode(me.uniform(0, 1), me.uniform(0, 2), [math.nan]),
    lambda: ru.max_ruin_ode(me.uniform(0, 1), me.uniform(0, 2), [0.5, math.inf]),
    lambda: ru.max_ruin_integral_residual(me.uniform(0, 1), me.uniform(0, 2), math.nan),
    lambda: ru.alpha_ruin_volterra(F_EXP, math.nan, BETA_ALPHA),
    lambda: ru.alpha_ruin_volterra(F_EXP, GAMMA, math.inf),
    lambda: ru.alpha_ruin_volterra(F_EXP, GAMMA, BETA_ALPHA, z_max=math.nan),
    lambda: ru.kendall_lambda_recursion_check(
        math.nan, 1.0, ri.RiskModel(co.kendall(1.0), KENDALL_LOM, KENDALL_LOM, u=1.0)),
    lambda: ru.kendall_lambda_recursion_check(
        0.5, -math.inf, ri.RiskModel(co.kendall(1.0), KENDALL_LOM, KENDALL_LOM, u=1.0)),
    lambda: ru.alpha_ruin_laplace_check(ru.alpha_ruin_volterra(F_EXP, GAMMA, BETA_ALPHA, steps=10),
                                        F_EXP, GAMMA, BETA_ALPHA, [math.nan]),
], ids=["lom_u", "lom_a", "point_ode_u", "point_ode_b", "ode_nan", "ode_inf", "residual_u",
        "volterra_gamma", "volterra_beta", "volterra_z_max", "recursion_v", "recursion_u",
        "laplace_s"])
def test_ruin_entry_points_reject_non_finite_numbers(call):
    with pytest.raises(me.ParameterError, match="must be finite"):
        call()
