import math

import numpy as np
import pytest

from gcruin import convolutions as co
from gcruin import measures as me
from gcruin import williamson as wi


def test_pareto_2alpha_cdf_and_quantile():
    d = me.pareto_2alpha(1.0)
    assert d.cdf(0.5) == 0.0
    assert d.cdf(1.0) == 0.0
    assert d.cdf(2.0) == pytest.approx(1.0 - 0.25)
    q = d.quantile(np.array([0.5, 0.75]))
    np.testing.assert_allclose(d.cdf(q), [0.5, 0.75], atol=1e-12)


def test_lom_alpha_is_weibull():
    d = me.lom_alpha(2.0, 3.0)
    x = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(d.cdf(x), 1.0 - np.exp(-2.0 * x**3), atol=1e-14)
    # mean of Weibull: Gamma(1 + 1/a) / g^(1/a)
    expected = math.gamma(1 + 1 / 3.0) / 2.0 ** (1 / 3.0)
    assert d.mean() == pytest.approx(expected, abs=1e-8)


def test_lom_kendall_support_and_density_mass():
    d = me.lom_kendall(2.0, 1.5)
    assert d.support_upper == 0.5
    assert d.cdf(0.5) == 1.0
    assert d.total_mass() == pytest.approx(1.0, abs=1e-10)


def test_point_mass_and_lom_max():
    d = me.point_mass(2.0)
    assert d.cdf(1.999) == 0.0
    assert d.cdf(2.0) == 1.0
    assert d.atom_mass == 1.0
    assert me.lom_max(3.0).family == "lom_max"
    with pytest.raises(me.ParameterError):
        me.lom_max(0.0)


def test_uniform_and_table():
    d = me.uniform(1.0, 3.0)
    assert d.cdf(2.0) == pytest.approx(0.5)
    t = me.table([(1.0, 0.25)], [(0.0, 0.0), (2.0, 0.75)])
    assert t.cdf(0.5) == pytest.approx(0.1875)
    assert t.cdf(1.0) == pytest.approx(0.625)
    with pytest.raises(me.ParameterError):
        me.table([(1.0, 0.5)], [(0.0, 0.0), (1.0, 0.6)])  # mass 1.1


GOLDEN_TABLE = me.table([(0.5, 0.3), (2.0, 0.2)], [(0.0, 0.0), (1.0, 0.25), (3.0, 0.5)])


def test_table_density_is_the_slope_of_its_continuous_part():
    np.testing.assert_array_equal(GOLDEN_TABLE.density(np.array([-1.0, 0.5, 1.5, 2.0, 3.5])),
                                  [0.0, 0.25, 0.125, 0.125, 0.0])
    assert GOLDEN_TABLE.total_mass() == pytest.approx(1.0, abs=1e-10)
    assert me.table([(1.0, 1.0)]).density is None
    with pytest.raises(me.ParameterError, match="atoms"):
        me.table([], [(0.0, 0.25), (1.0, 1.0)])  # a jump at 0 is an atom


def test_expect_sums_atoms_and_integrates_the_density():
    # 0.3 * 0.5 + 0.2 * 2 + int_0^1 x / 4 dx + int_1^3 x / 8 dx
    assert GOLDEN_TABLE.expect(lambda x: x) == pytest.approx(1.175, abs=1e-10)
    assert me.uniform(0.0, 1.0).expect(lambda x: x * x) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert me.point_mass(2.0).expect(lambda x: x**3) == 8.0


def test_expect_stops_the_quadrature_at_upper():
    assert me.uniform(0.0, 2.0).expect(lambda x: max(1.0 - x, 0.0), 1.0) == pytest.approx(0.25)
    # g = 1{x <= 1}: the atom at 0.5 plus the density's mass on (0, 1) is F(1)
    below_one = GOLDEN_TABLE.expect(lambda x: 1.0 if x <= 1.0 else 0.0, 1.0)
    assert below_one == pytest.approx(float(GOLDEN_TABLE.cdf(1.0)), abs=1e-12)


def test_expect_below_support_lower_integrates_nothing():
    assert me.uniform(0.5, 2.0).expect(lambda x: 1.0, 0.4) == 0.0
    pair = co.convolve_points(co.kendall(1.0), 0.5, 1.0)  # atom and density from 1 on
    assert pair.expect(lambda x: 1.0 if x <= 0.5 else 0.0, 0.5) == 0.0


def test_sampling_is_deterministic_and_correct():
    d = me.lom_alpha(1.0, 1.0)
    a = d.sample(1000, seed=42)
    b = d.sample(1000, seed=42)
    np.testing.assert_array_equal(a, b)
    assert abs(a.mean() - 1.0) < 3.0 * a.std(ddof=1) / math.sqrt(len(a))


def test_quantile_bisection_fallback():
    base = me.lom_alpha(1.0, 2.0)
    d = me.Distribution((), base.cdf_fn, None, base.density,
                        math.inf, 0.0)
    q = np.array([0.1, 0.5, 0.9])
    np.testing.assert_allclose(d.quantile(q), base.quantile(q), atol=1e-9)


def _bisect_200(cdf_fn, q, lo, hi, iters=200):
    """The bisection inverse run for all its steps, with no early stop."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    lo_arr = np.full_like(q, lo)
    if math.isfinite(hi):
        hi_arr = np.full_like(q, hi)
    else:
        hi_arr = np.maximum(lo + 1.0, 1.0) * np.ones_like(q)
        for _ in range(200):
            bad = cdf_fn(hi_arr) < q
            if not np.any(bad):
                break
            hi_arr[bad] *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo_arr + hi_arr)
        below = cdf_fn(mid) < q
        lo_arr = np.where(below, mid, lo_arr)
        hi_arr = np.where(below, hi_arr, mid)
    return hi_arr


def _inversion_laws():
    alg = co.kendall_type(3.0)
    return {
        "kendall_type_pair": co.convolve_points(alg, 0.6, 1.5),
        "kendall_type_lambda1": co._kendall_type_lambda1(alg),
        "table": me.table([(0.5, 0.3), (2.0, 0.2)], [(0.0, 0.0), (1.0, 0.25), (3.0, 0.5)]),
    }


@pytest.mark.parametrize("name", ["kendall_type_pair", "kendall_type_lambda1", "table"])
def test_invert_cdf_stops_at_fixed_point_with_identical_bits(name):
    d = _inversion_laws()[name]
    calls = []

    def cdf(x):
        calls.append(1)
        return d.cdf_fn(x)

    masses = np.cumsum([m for _, m in d.atoms])
    special = np.concatenate([masses, np.nextafter(masses, 0.0), np.nextafter(masses, 1.0)])
    q = np.concatenate([np.random.default_rng(5).random(2000), special[special < 1.0]])
    got = me._invert_cdf(cdf, q, d.support_lower, d.support_upper)
    want = _bisect_200(d.cdf_fn, q, d.support_lower, d.support_upper)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert len(calls) <= 80          # bracket doubling plus about 55 bisection steps

    # extreme and NaN arguments: may run longer, up to the cap, with the same bits
    edge = np.array([1e-16, 1.0 - 1e-16, np.nan])
    for qi in edge:
        got = me._invert_cdf(d.cdf_fn, [qi], d.support_lower, d.support_upper)
        want = _bisect_200(d.cdf_fn, [qi], d.support_lower, d.support_upper)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_moment_alpha_closed_forms():
    # Pareto with tail 2a: E X^r = 2a / (2a - r) for r < 2a
    assert me.moment_alpha(me.pareto_2alpha(1.0), 1.0) == pytest.approx(2.0, abs=1e-8)
    assert me.moment_alpha(me.uniform(0, 1), 1.0) == pytest.approx(0.5, abs=1e-10)
    assert me.moment_alpha(me.point_mass(3.0), 2.0) == pytest.approx(9.0, abs=1e-10)
    # lack-of-memory law of the Kendall algebra: E X^a = (1/2) c^(-a)
    assert me.moment_alpha(me.lom_kendall(2.0, 1.0), 1.0) == pytest.approx(0.25, abs=1e-10)


def test_moment_alpha_divergence():
    # tail index 1 law has no mean
    assert me.moment_alpha(me.pareto_2alpha(0.5), 1.0) == math.inf


def test_moment_alpha_slowly_decaying_finite_tail():
    # tail index 1, r = 1/2: E X^r = 1 / (1 - r) = 2, though each doubling
    # segment of the tail integral shrinks only by 2^(-1/2)
    assert me.moment_alpha(me.pareto_2alpha(0.5), 0.5) == pytest.approx(2.0, rel=1e-9)


def test_power_transform():
    d = me.power_transform(me.lom_alpha(1.0, 2.0), 2.0)
    # X ~ Weibull(g=1, a=2) => X^2 ~ Exp(1)
    x = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(d.cdf(x), 1.0 - np.exp(-x), atol=1e-14)


POWER_BASES = {
    "uniform01": me.uniform(0.0, 1.0),
    "uniform_half_2": me.uniform(0.5, 2.0),
    "pareto": me.pareto_2alpha(1.0),
    "lom_alpha": me.lom_alpha(1.0, 1.5),
    "lom_kendall": me.lom_kendall(1.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(POWER_BASES))
@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
def test_power_transform_density_carries_the_mass(name, alpha):
    d = me.power_transform(POWER_BASES[name], alpha)
    assert d.total_mass() == pytest.approx(1.0, abs=1e-12)
    # the Stieltjes form integrates the new density, the CDF form does not
    for t in (0.4, 1.0, 2.5):
        assert wi.transform_form1(d, 1.0, t) == pytest.approx(
            float(wi.williamson_transform(d, 1.0, t)), abs=1e-9)


def test_power_transform_density_formula():
    d = me.power_transform(me.uniform(0.0, 1.0), 2.0)
    # Z = X^2, X ~ U(0, 1): f(z) = 1 / (2 sqrt z) on (0, 1]
    z = np.array([-1.0, 0.0, 0.25, 0.64, 2.0])
    np.testing.assert_allclose(d.density(z), [0.0, 0.0, 1.0, 0.625, 0.0], atol=1e-15)
    assert d.density(0.25) == pytest.approx(1.0)
    shifted = me.power_transform(me.uniform(0.5, 2.0), 2.0)
    # zero at and below the new lower end 0.25
    np.testing.assert_array_equal(shifted.density(np.array([0.1, 0.25])), [0.0, 0.0])
    assert co.char_fn(co.classical(), d, 1.0) == pytest.approx(0.746824132812427, abs=1e-12)


def test_table_rejects_negative_knots():
    with pytest.raises(me.ParameterError, match="nonnegative"):
        me.table([], [(-1.0, 0.0), (1.0, 1.0)])
    with pytest.raises(me.ParameterError, match="nonnegative"):
        me.table([(1.0, 0.5)], [(-0.5, 0.0), (0.0, 0.1), (2.0, 0.5)])


def test_distribution_from_json():
    d = me.distribution_from_json({"family": "lom_kendall", "c": 1.0, "alpha": 1.0})
    assert d.family == "lom_kendall"
    with pytest.raises(me.ParameterError):
        me.distribution_from_json({"family": "nope"})
    with pytest.raises(me.ParameterError):
        me.distribution_from_json({"family": "uniform", "a": 0.0})  # missing b


def test_parameter_validation():
    with pytest.raises(me.ParameterError):
        me.pareto_2alpha(-1.0)
    with pytest.raises(me.ParameterError):
        me.uniform(2.0, 1.0)
    with pytest.raises(me.ParameterError):
        me.lom_kendall(0.0, 1.0)


# ---------------------------------------------------------------------------
# input boundary: non-finite parameters
# ---------------------------------------------------------------------------

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build", [
    lambda: me.uniform(0.0, INF),
    lambda: me.uniform(NAN, 1.0),
    lambda: me.lom_alpha(1.0, NAN),
    lambda: me.lom_alpha(INF, 1.0),
    lambda: me.lom_kendall(NAN, 1.0),
    lambda: me.lom_kendall(1.0, INF),
    lambda: me.lom_max(NAN),
    lambda: me.lom_max(INF),
    lambda: me.pareto_2alpha(NAN),
    lambda: me.pareto_2alpha(INF),
    lambda: me.point_mass(NAN),
    lambda: me.point_mass(INF),
    lambda: me.table([(NAN, 1.0)]),
    lambda: me.table([(1.0, 0.5)], [(0.0, 0.0), (NAN, 0.5)]),
    lambda: me.distribution_from_json({"family": "lom_alpha", "gamma": 1.0, "alpha": NAN}),
    lambda: me.power_transform(me.uniform(0.0, 1.0), NAN),
    lambda: me.power_transform(me.uniform(0.0, 1.0), INF),
    lambda: me.power_transform(me.uniform(0.0, 1.0), -INF),
])
def test_builders_reject_non_finite_parameters(build):
    with pytest.raises(me.ParameterError, match="finite"):
        build()


@pytest.mark.parametrize("law", [
    me.uniform(0.0, 1.0),
    me.table([(0.5, 0.3), (2.0, 0.2)], [(0.0, 0.0), (1.0, 0.25), (3.0, 0.5)]),
    co.convolve_points(co.kendall_type(3.0), 0.6, 1.5),
])
def test_quantile_rejects_nan(law):
    with pytest.raises(me.ParameterError):
        law.quantile(NAN)
    with pytest.raises(me.ParameterError):
        law.quantile(np.array([0.5, NAN]))
