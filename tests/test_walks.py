import math
import sys

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
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


def kendall_step_reference(alpha, x, u, rng):
    """The Kendall step with the Pareto factor drawn and applied on every row."""
    n = x.shape[0]
    xi = rng.random(n)
    pi = np.power(1.0 - rng.random(n), -1.0 / (2.0 * alpha))
    big = np.maximum(x, u)
    small = np.minimum(x, u)
    rho = np.power(np.divide(small, big, out=np.zeros(n), where=big > 0), alpha)
    return np.where(xi >= rho, big, big * pi)


#: states at the edges of the Kendall step: x = u = 0, the smallest normal
#: scale, jumps that overflow to inf, and inf itself
kendall_state = st.one_of(
    st.sampled_from([0.0, 1e-300, 1.0, 1e300, 1e308, np.finfo(float).max, math.inf]),
    st.floats(0.0, 10.0),
)
kendall_pairs = st.lists(st.one_of(st.tuples(kendall_state, kendall_state),
                                   kendall_state.map(lambda v: (v, v))),
                         min_size=1, max_size=200)


@settings(max_examples=40, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate, Phase.shrink))
@given(alpha=st.sampled_from([0.3, 1.0, 1.7]), pairs=kendall_pairs,
       seed=st.integers(0, 2**32 - 1))
@example(alpha=0.3, pairs=[(0.0, 0.0), (1e-300, 1e-300), (1e300, 1e300), (2.0, 1.0),
                           (np.finfo(float).max, np.finfo(float).max), (math.inf, math.inf)],
         seed=0)
# alpha = 0.001: pi = (1 - v)^-500 overflows for v > 0.76, so a step that
# jumped at x = u = 0 would give 0 * inf = NaN where the reference keeps 0
@example(alpha=0.001, pairs=[(0.0, 0.0)] * 16 + [(1.0, 1.0)] * 4, seed=1)
def test_kendall_step_is_the_two_branch_step_bit_for_bit(alpha, pairs, seed):
    # the step computes the Pareto factor only where the walk jumps; values
    # and the generator's state must be those of the step that computed it
    # on every row
    x, u = (np.array(side) for side in zip(*pairs))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        got = wa.apply_step_batch(co.kendall(alpha), x, u, rng)
        want = kendall_step_reference(alpha, x, u, ref_rng)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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


def chunk0_steps(step_law, n, paths, seed):
    """The step values of chunk 0's walks for an algebra that draws nothing else."""
    rng = np.random.default_rng([seed, 0])
    return np.stack([step_law.sample(paths, rng) for _ in range(n)], axis=1)


def test_max_walk_is_running_maximum():
    law = me.uniform(0, 1)
    states = wa.simulate_paths(co.max_algebra(), law, 6, 3, seed=9)
    steps = chunk0_steps(law, 6, 3, 9)
    np.testing.assert_array_equal(states[:, 1:], np.maximum.accumulate(steps, axis=1))
    assert np.all(states[:, 0] == 0.0)


def test_alpha_stable_walk_is_pythagorean():
    law = me.uniform(0, 1)
    states = wa.simulate_paths(co.alpha_stable(2.0), law, 5, 3, seed=4)
    steps = chunk0_steps(law, 5, 3, 4)
    np.testing.assert_allclose(states[:, 1:] ** 2, np.cumsum(steps**2, axis=1), rtol=1e-12)


def test_walk_start_is_honored():
    states = wa.simulate_paths(co.kendall(1.0), me.uniform(0, 1), 3, 4, start=2.0, seed=1)
    assert states.shape == (4, 4)
    assert np.all(states[:, 0] == 2.0)
    assert np.all(states >= 0.0)


@pytest.mark.parametrize("paths", [1, 7, wa.CHUNK - 1, wa.CHUNK + 1])
@pytest.mark.parametrize("alg", [co.kendall(1.0), co.max_algebra(), co.kingman(0.5),
                                 co.kendall_type(3.0), co.classical()], ids=lambda a: a.kind)
def test_recorded_paths_end_at_the_terminal_walk(alg, paths):
    for seed in (0, 123456789):
        states = wa.simulate_paths(alg, me.uniform(0, 1), 3, paths, seed=seed)
        assert states.shape == (paths, 4)
        np.testing.assert_array_equal(
            states[:, -1], wa.simulate_terminal(alg, me.uniform(0, 1), 3, paths, seed=seed))


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


#: a chunk width walked in row blocks: three full blocks and a 5-row one
WIDE = 3 * wa.CHUNK + 5


@pytest.mark.parametrize("key", [(), (3,)])
@pytest.mark.parametrize("paths, width", [
    *(pytest.param(p, wa.CHUNK, id=str(p))
      for p in (wa.CHUNK - 1, wa.CHUNK, wa.CHUNK + 1, 3 * wa.CHUNK + 7)),
    # two full wide chunks and a ragged last one, itself two blocks wide
    pytest.param(2 * WIDE + wa.CHUNK + 9, WIDE, id="wide"),
])
def test_map_chunks_concatenates_the_chunk_streams_in_order(paths, width, key):
    got = wa.map_chunks(lambda lo, hi, rng: rng.random(hi - lo), paths, 5, width=width, key=key)
    want = [np.random.default_rng([5, *key, ci]).random(min(width, paths - lo))
            for ci, lo in enumerate(range(0, paths, width))]
    assert got.tobytes() == np.concatenate(want).tobytes()


def test_map_chunks_row_blocks_repeat_every_draw_of_a_wide_chunk():
    # odd blocks draw twice and keep the second draw, as a block that stops
    # early beside one that walks on: every block starts from the chunk's
    # stream, and its k-th draw is its rows of the chunk's k-th draw
    def fn(lo, hi, rng):
        for _ in range(1 + (lo // wa.CHUNK) % 2):
            out = rng.random(hi - lo)
        return out

    got = wa.map_chunks(fn, WIDE, 5, width=WIDE)
    rng = np.random.default_rng([5, 0])
    draws = [rng.random(WIDE), rng.random(WIDE)]
    want = np.concatenate([draws[(lo // wa.CHUNK) % 2][lo:lo + wa.CHUNK]
                           for lo in range(0, WIDE, wa.CHUNK)])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("draw", [
    lambda rng, n: rng.poisson(1.0, n),
    lambda rng, n: rng.beta(2.0, 2.0, n),
    lambda rng, n: rng.random(n + 1),
], ids=["poisson", "beta", "random_n_plus_1"])
def test_map_chunks_wide_chunk_blocks_draw_only_their_rows(draw):
    with pytest.raises(me.ParameterError, match="^a row block of 16384 paths draws random"):
        wa.map_chunks(lambda lo, hi, rng: draw(rng, hi - lo), WIDE, 5, width=WIDE)


def test_map_chunks_checks_the_seed_before_any_chunk():
    def fn(lo, hi, rng):
        raise AssertionError("chunk run before the seed was checked")

    with pytest.raises(me.ParameterError, match="^seed must be nonnegative, got -1$"):
        wa.map_chunks(fn, 10, -1)


def two_cpus(monkeypatch):
    monkeypatch.setattr(wa.os, "sched_getaffinity", lambda pid: {0, 1})


def test_map_chunks_on_threads_returns_the_serial_array(monkeypatch):
    # each worker keeps one scratch array; the chunk draws into it and into a
    # fresh array, so the result shows both the stream and the scratch use
    two_cpus(monkeypatch)
    made = []

    def scratch():
        made.append(np.empty(wa.CHUNK))
        return made[-1]

    def threaded(lo, hi, rng, buf):
        out = buf[:hi - lo]
        rng.standard_exponential(out=out)
        return out + rng.random(hi - lo)

    def serial(lo, hi, rng):
        return rng.standard_exponential(hi - lo) + rng.random(hi - lo)

    paths = 3 * wa.CHUNK + 5
    got = wa.map_chunks(threaded, paths, 5, key=(2,), scratch=scratch)
    assert len(made) == 2
    assert got.tobytes() == wa.map_chunks(serial, paths, 5, key=(2,)).tobytes()


def test_map_chunks_hands_out_every_chunk_once_under_thread_switches(monkeypatch):
    # eight workers on the host's CPUs, 401 seven-path chunks, a thread switch
    # every microsecond: a chunk run twice or lost breaks the serial bytes
    monkeypatch.setattr(wa.os, "sched_getaffinity", lambda pid: set(range(8)))
    runs = []

    def fn(lo, hi, rng, mem):
        runs.append(lo)
        return rng.random(hi - lo)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = wa.map_chunks(fn, 400 * 7 + 3, 5, width=7, scratch=lambda: None)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(runs) == list(range(0, 400 * 7 + 3, 7))
    want = wa.map_chunks(lambda lo, hi, rng: rng.random(hi - lo), 400 * 7 + 3, 5, width=7)
    assert got.tobytes() == want.tobytes()


def test_map_chunks_makes_at_most_one_worker_per_chunk(monkeypatch):
    two_cpus(monkeypatch)
    made = []
    got = wa.map_chunks(lambda lo, hi, rng, mem: rng.random(hi - lo), wa.CHUNK, 5,
                        scratch=lambda: made.append(None))
    assert len(made) == 1
    assert got.tobytes() == np.random.default_rng([5, 0]).random(wa.CHUNK).tobytes()


def test_map_chunks_raises_an_exception_of_a_worker_chunk(monkeypatch):
    two_cpus(monkeypatch)

    def fn(lo, hi, rng, mem):
        if lo == 2 * wa.CHUNK:
            raise me.ParameterError("chunk 2 failed")
        return rng.random(hi - lo)

    with pytest.raises(me.ParameterError, match="^chunk 2 failed$"):
        wa.map_chunks(fn, 3 * wa.CHUNK + 5, 5, scratch=lambda: None)


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
        wa.simulate_paths(co.kendall(1.0), me.uniform(0, 1), -1, 3)
    for start in (-2.0, math.nan, math.inf):
        with pytest.raises(me.ParameterError):
            wa.simulate_paths(co.kendall(1.0), me.uniform(0, 1), 2, 3, start=start)
        with pytest.raises(me.ParameterError):
            wa.simulate_terminal(co.max_algebra(), me.uniform(0, 1), 0, 3, start=start)
    with pytest.raises(me.ParameterError):
        wa.simulate_terminal(co.kendall(1.0), me.uniform(0, 1), -1, 3)
    with pytest.raises(me.ParameterError):
        wa.simulate_terminal(co.kendall(1.0), me.uniform(0, 1), 2, 0)
    # a negative seed is a ParameterError, not numpy's bare ValueError
    for walk in (wa.simulate_terminal, wa.simulate_terminal_generic):
        with pytest.raises(me.ParameterError, match="^seed must be nonnegative, got -1$"):
            walk(co.kendall(1.0), me.uniform(0, 1), 2, 3, seed=-1)
    with pytest.raises(me.ParameterError, match="^seed must be nonnegative, got -1$"):
        wa.simulate_paths(co.kendall(1.0), me.uniform(0, 1), 2, 3, seed=-1)
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
