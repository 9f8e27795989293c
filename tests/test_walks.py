import math

import numpy as np
import pytest
from scipy import stats

from gcruin import convolutions as co
from gcruin import measures as me
from gcruin import walks as wa
from gcruin import williamson as wi


def test_kendall_step_trivial_cases():
    alg = co.kendall(1.0)

    def move(x, u):
        n = 1000
        return wa.apply_step_batch(alg, np.full(n, x), np.full(n, u), np.random.default_rng(4))

    assert np.all(move(0.0, 5.0) == 5.0)   # rho = 0: keep max
    # x = u: rho = 1, always the Pareto branch
    assert np.all(move(1.0, 1.0) > 1.0)
    assert np.all(move(0.0, 0.0) == 0.0)


def test_kendall_step_distribution_matches_point_convolution():
    # law of one step from 0.5 with step 1: 0.5 pareto(2) tail + 0.5 atom at 1
    rng = np.random.default_rng(3)
    n = 100_000
    xi = rng.random(n)
    pi = np.power(1.0 - rng.random(n), -0.5)
    draws = np.where(xi >= 0.5, 1.0, pi)
    law = co.convolve_points(co.kendall(1.0), 0.5, 1.0)
    grid = np.linspace(1.0, 20.0, 400)
    emp = np.searchsorted(np.sort(draws), grid, side="right") / n
    assert np.max(np.abs(emp - law.cdf(grid))) <= 0.01


def test_max_walk_is_running_maximum():
    path = wa.simulate(co.max_algebra(), me.uniform(0, 1), 6, seed=9)
    states = np.array(path.states)
    steps = np.array(path.steps)
    np.testing.assert_allclose(states[1:], np.maximum.accumulate(steps), atol=0)
    assert states[0] == 0.0


def test_alpha_stable_walk_is_pythagorean():
    path = wa.simulate(co.alpha_stable(2.0), me.uniform(0, 1), 5, seed=4)
    states = np.array(path.states)
    steps = np.array(path.steps)
    np.testing.assert_allclose(states[1:] ** 2, np.cumsum(steps**2), rtol=1e-12)


def test_walk_start_is_honored():
    path = wa.simulate(co.kendall(1.0), me.uniform(0, 1), 3, start=2.0, seed=1)
    assert path.states[0] == 2.0
    assert min(path.states) >= 0.0


def test_suffix_reproducibility():
    # restarting from an intermediate state with the step-index offset
    # reproduces the remaining path exactly (Markov property by construction)
    for alg in (co.kendall(1.0), co.max_algebra(), co.classical(), co.kingman(0.5)):
        full = wa.simulate(alg, me.uniform(0, 1), 8, seed=13)
        k = 3
        tail = wa.simulate(alg, me.uniform(0, 1), 8 - k, start=full.states[k],
                           seed=13, first_step=k)
        np.testing.assert_allclose(tail.states, full.states[k:], rtol=1e-14)


def test_simulate_terminal_is_deterministic():
    a = wa.simulate_terminal(co.kendall(1.0), me.uniform(0, 1), 4, 1000, seed=7)
    b = wa.simulate_terminal(co.kendall(1.0), me.uniform(0, 1), 4, 1000, seed=7)
    np.testing.assert_array_equal(a, b)
    c = wa.simulate_terminal(co.kendall(1.0), me.uniform(0, 1), 4, 1000, seed=8)
    assert not np.array_equal(a, c)


def test_chunking_does_not_depend_on_total_path_count():
    # paths are seeded per fixed-size chunk: the first chunk's results are
    # identical no matter how many additional chunks are requested
    small = wa.simulate_terminal(co.kendall(1.0), me.uniform(0, 1), 3, wa.CHUNK, seed=5)
    big = wa.simulate_terminal(co.kendall(1.0), me.uniform(0, 1), 3, wa.CHUNK + 500, seed=5)
    np.testing.assert_array_equal(small, big[:wa.CHUNK])


def ks_one_sample(draws: np.ndarray, cdf_vals_sorted: np.ndarray) -> float:
    n = len(draws)
    hi = np.max(np.abs(cdf_vals_sorted - np.arange(1, n + 1) / n))
    lo = np.max(np.abs(cdf_vals_sorted - np.arange(0, n) / n))
    return float(max(hi, lo))


def test_kendall_walk_matches_n_step_cdf():
    alg = co.kendall(1.0)
    for law in (me.point_mass(1.0), me.uniform(0, 1)):
        pair = wi.kendall_pair(law, 1.0)
        term = np.sort(wa.simulate_terminal(alg, law, 5, 40_000, seed=2))
        ks = ks_one_sample(term, np.asarray(wi.n_step_cdf(pair, 5, term)))
        assert ks <= 0.012, (law.family, ks)


def generic_vs_specialized(alg, step_law, n, paths, seed=0):
    """KS distance between the specialized and the generic sampler's terminals."""
    if n == 0:
        return 0.0
    fast = wa.simulate_terminal(alg, step_law, n, paths, seed=seed)
    slow = wa.simulate_terminal_generic(alg, step_law, n, paths, seed=seed + 1)
    return float(stats.ks_2samp(fast, slow).statistic)


def test_generic_sampler_agrees_with_specialized():
    assert generic_vs_specialized(co.kendall(1.0), me.uniform(0, 1), 0, 100) == 0.0
    ks = generic_vs_specialized(co.kendall(1.0), me.uniform(0, 1), 3, 20_000, seed=1)
    assert ks <= 0.015
    ks = generic_vs_specialized(co.max_algebra(), me.uniform(0, 1), 3, 20_000, seed=2)
    assert ks <= 0.015
    ks = generic_vs_specialized(co.alpha_stable(2.0), me.uniform(0, 1), 3, 20_000, seed=3)
    assert ks <= 0.015


def test_generic_sampler_covers_remaining_algebras():
    for alg in (co.kingman(0.5), co.symmetric()):
        ks = generic_vs_specialized(alg, me.uniform(0, 1), 2, 8_000, seed=11)
        assert ks <= 0.025, (alg.kind, ks)
    ks = generic_vs_specialized(co.kendall_type(3.0), me.uniform(0, 1), 2, 4_000, seed=11)
    assert ks <= 0.035


def test_characteristic_function_semigroup():
    # empirical E Omega(t X_n) must equal char_fn(mu, t)^n within 3 SE
    law = me.uniform(0, 1)
    n, t, paths = 3, 0.7, 30_000
    for alg in (co.classical(), co.alpha_stable(1.5), co.max_algebra(),
                co.kendall(1.0), co.kingman(0.5), co.kendall_type(3.0),
                co.symmetric()):
        term = wa.simulate_terminal(alg, law, n, paths, seed=6)
        vals = np.asarray(co.kernel(alg, t * term), dtype=float)
        est = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(paths)
        target = co.char_fn(alg, law, t) ** n
        assert abs(est - target) <= 3.0 * se + 1e-4, (alg.kind, est, target, se)


def test_walk_input_validation():
    with pytest.raises(me.ParameterError):
        wa.simulate(co.kendall(1.0), me.uniform(0, 1), -1)
    for start in (-2.0, math.nan, math.inf):
        with pytest.raises(me.ParameterError):
            wa.simulate(co.kendall(1.0), me.uniform(0, 1), 2, start=start)
        with pytest.raises(me.ParameterError):
            wa.simulate_terminal(co.max_algebra(), me.uniform(0, 1), 0, 3, start=start)
    with pytest.raises(me.ParameterError):
        wa.simulate_terminal(co.kendall(1.0), me.uniform(0, 1), -1, 3)
    with pytest.raises(me.ParameterError):
        wa.simulate_terminal(co.kendall(1.0), me.uniform(0, 1), 2, 0)
    with pytest.raises(me.ParameterError):
        co.kingman(-0.6)


@pytest.mark.parametrize("alg", [co.kingman(0.5), co.kendall_type(3.0), co.kendall(1.7)],
                         ids=lambda a: a.kind)
def test_generic_sampler_path_prefix_does_not_depend_on_path_count(alg):
    # path i draws from its own stream, so the first 5 of 37 paths are the 5-path run
    law = me.table([(0.0, 0.4)], [(0.0, 0.0), (2.0, 0.6)])
    few = wa.simulate_terminal_generic(alg, law, 3, 5, start=0.5, seed=17)
    many = wa.simulate_terminal_generic(alg, law, 3, 37, start=0.5, seed=17)
    np.testing.assert_array_equal(few, many[:5])


def test_generic_sampler_zero_moves_returns_start():
    got = wa.simulate_terminal_generic(co.kendall(1.0), me.uniform(0, 1), 0, 4, start=0.75)
    np.testing.assert_array_equal(got, np.full(4, 0.75))


@pytest.mark.parametrize("start", [-1.0, math.nan, math.inf])
def test_generic_sampler_rejects_bad_start(start):
    with pytest.raises(me.ParameterError):
        wa.simulate_terminal_generic(co.kendall(1.0), me.uniform(0, 1), 2, 3, start=start)
