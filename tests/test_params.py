import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normcontrol import optim, params
from normcontrol.optim import OptimizerConfig, OptimizerState, Variant
from normcontrol.params import ParamGroup, ParamStore
from normcontrol.schedules import CosineSpec, PiecewiseLinearSpec, ScheduleSpec
from normcontrol.verify import oracle_controlled_norm, oracle_from_store, oracle_step

EPS = np.finfo(np.float64).eps


def two_group_store(controlled_vals, uncontrolled_vals):
    theta = np.concatenate([controlled_vals, uncontrolled_vals])
    n1 = len(controlled_vals)
    return ParamStore(theta, [
        ParamGroup("w", 0, n1, controlled=True),
        ParamGroup("u", n1, len(uncontrolled_vals), controlled=False),
    ])


def test_controlled_norm_345():
    store = ParamStore(np.array([3.0, 4.0]), [ParamGroup("w", 0, 2, True)])
    assert store.controlled_norm() == 5.0


def test_uncontrolled_group_excluded_from_norm():
    store = two_group_store([3.0, 4.0], [100.0])
    assert store.controlled_norm() == 5.0


def test_zero_vector_norm():
    store = ParamStore(np.zeros(7), [ParamGroup("w", 0, 7, True)])
    assert store.controlled_norm() == 0.0


def test_norm_ratio_unchanged_is_one():
    store = two_group_store([1.0, -2.0, 0.5], [9.0])
    assert store.controlled_norm() / store.initial_norm == 1.0


def test_norm_ratio_after_doubling():
    store = ParamStore(np.array([3.0, 4.0]), [ParamGroup("w", 0, 2, True)])
    store.theta *= 2.0
    assert store.controlled_norm() / store.initial_norm == pytest.approx(2.0, rel=4 * EPS)


def test_norm_ratio_derived_from_direct_summation():
    # init [3,4] -> current [6,8]; both norms recomputed by direct summation
    store = ParamStore(np.array([3.0, 4.0]), [ParamGroup("w", 0, 2, True)])
    store.theta[:] = [6.0, 8.0]
    init = math.sqrt(3.0**2 + 4.0**2)
    cur = math.sqrt(6.0**2 + 8.0**2)
    assert cur / init == 2.0
    assert store.controlled_norm() / store.initial_norm == pytest.approx(2.0, rel=4 * EPS)


def test_snapshot_is_independent():
    store = two_group_store([3.0, 4.0], [1.0])
    copy = store.snapshot()
    copy.theta[:] = 0.0
    assert store.controlled_norm() == 5.0
    assert copy.controlled_norm() == 0.0


def test_snapshot_of_empty_store():
    store = ParamStore(np.zeros(0), [])
    copy = store.snapshot()
    assert copy.theta.size == 0
    assert copy.groups == []


def test_snapshot_preserves_initial_norm_bitwise():
    store = ParamStore(np.array([0.1, 0.2, 0.3]), [ParamGroup("w", 0, 3, True)])
    store.theta += 1.0
    copy = store.snapshot()
    assert copy.initial_norm == store.initial_norm


def test_snapshot_copies_theta_once():
    n = 10**5  # above _EXACT_CUTOFF, and one group is controlled
    store = ParamStore(np.random.default_rng(3).normal(size=n),
                       [ParamGroup("w", 0, n // 2), ParamGroup("b", n // 2, n - n // 2, False)])
    tracemalloc.start()
    try:
        copy = store.snapshot()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * store.theta.nbytes, f"snapshot peaked at {peak} bytes"
    assert copy.groups == store.groups and copy.groups is not store.groups
    assert copy.controlled_norm() == copy.initial_norm == store.initial_norm


def test_initial_norm_frozen_at_construction():
    store = ParamStore(np.array([3.0, 4.0]), [ParamGroup("w", 0, 2, True)])
    before = store.initial_norm
    store.theta *= 10.0
    assert store.initial_norm == before


def test_uncontrolled_mutation_leaves_controlled_norm():
    store = two_group_store([3.0, 4.0], [1.0, 2.0])
    before = store.controlled_norm()
    store.theta[2:] += 1e6
    assert store.controlled_norm() == before


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=50),
    st.floats(0.0, 100.0, allow_nan=False),
)
def test_scaling_homogeneity(vals, c):
    store = ParamStore(np.array(vals), [ParamGroup("w", 0, len(vals), True)])
    before = store.controlled_norm()
    store.scale_controlled(c)
    after = store.controlled_norm()
    assert abs(after - c * before) <= 4 * EPS * max(c * before, 1e-300)


@pytest.mark.parametrize("theta", [[3 + 4j, 1j], np.array(["1", "2"])])
def test_a_complex_or_text_theta_is_rejected(theta):
    # not cast to its real part (norm 3.0) or parsed as numbers
    with pytest.raises(TypeError, match="same_kind"):
        ParamStore(theta, [ParamGroup("w", 0, 2)])


def test_theta_is_copied_as_float64():
    ints = np.array([[3, 4]])
    store = ParamStore(ints, [ParamGroup("w", 0, 2)])
    assert store.theta.dtype == np.float64 and store.controlled_norm() == 5.0
    floats = np.array([3.0, 4.0])
    ParamStore(floats, [ParamGroup("w", 0, 2)]).theta[0] = 0.0
    assert floats[0] == 3.0


def test_groups_must_tile_contiguously():
    with pytest.raises(ValueError, match="tile"):
        ParamStore(np.zeros(4), [ParamGroup("a", 0, 2, True), ParamGroup("b", 3, 1, True)])
    with pytest.raises(ValueError, match="cover"):
        ParamStore(np.zeros(4), [ParamGroup("a", 0, 2, True)])
    with pytest.raises(ValueError, match="^group 'b' has negative length$"):
        ParamStore(np.zeros(4), [ParamGroup("a", 0, 6, True), ParamGroup("b", 6, -2, True)])


def test_a_group_of_length_minus_one_is_rejected():
    # The groups end at 3 == size, so only the length check tells this from a tiling.
    with pytest.raises(ValueError, match="^group 'b' has negative length$"):
        ParamStore(np.zeros(3), [ParamGroup("a", 0, 4, True), ParamGroup("b", 4, -1, True)])


@pytest.mark.parametrize("offset, length", [
    (False, True), (0, 4.0), (0.0, 4), (0, np.float64(4)), (0, "4"), (np.bool_(False), 4),
], ids=["bools", "float-length", "float-offset", "np-float-length", "text-length", "np-bool-offset"])
def test_group_offset_and_length_must_be_integers(offset, length):
    # else a bool counted as 0 or 1, and a float length failed late, slicing theta
    with pytest.raises(TypeError, match="^group 'a': offset and length must be integers"):
        ParamGroup("a", offset, length)
    group = ParamGroup("a", np.int64(0), np.int32(4))  # numpy integers are integers
    store = ParamStore(np.ones(4), [group], initial_norm=1.0)
    store.scale_controlled(0.5)
    assert store.controlled_norm() == 1.0


@pytest.mark.parametrize("bad", [-1.0, -math.inf, math.nan, -0.5])
def test_an_explicit_initial_norm_must_be_nonnegative(bad):
    # else the norm target r_t * initial_norm went negative: the norm ratio was -2.0 at -1.0
    with pytest.raises(ValueError, match="^initial_norm must be >= 0, got "):
        ParamStore(np.array([3.0, 4.0]), [ParamGroup("w", 0, 2)], initial_norm=bad)
    for good in (0.0, 2.5, math.inf):
        store = ParamStore(np.array([3.0, 4.0]), [ParamGroup("w", 0, 2)], initial_norm=good)
        assert store.initial_norm == good
    # A measured norm is never rejected: a NaN theta's store and its snapshot keep NaN.
    store = ParamStore(np.array([math.nan, 4.0]), [ParamGroup("w", 0, 2)])
    assert math.isnan(store.initial_norm) and math.isnan(store.snapshot().initial_norm)


# Elements of magnitude 0 or in [1e-3, 1e3]: their squares neither underflow nor
# overflow, so the store's power-of-two pre-scaling is exact and the norm must
# equal the naive fsum formula bit for bit.
_ELEMENT = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def interleaved_stores(draw):
    """1-8 groups, zero lengths allowed, each controlled or not at random."""
    layout = draw(st.lists(st.tuples(st.integers(0, 6), st.booleans()), min_size=1, max_size=8))
    groups, flags, offset = [], [], 0
    for i, (length, controlled) in enumerate(layout):
        groups.append(ParamGroup(f"g{i}", offset, length, controlled))
        flags += [controlled] * length
        offset += length
    theta = draw(st.lists(_ELEMENT, min_size=offset, max_size=offset))
    return ParamStore(np.array(theta), groups), np.array(flags, dtype=bool)


@settings(max_examples=200, deadline=None)
@given(interleaved_stores(), st.floats(0.0, 10.0), st.integers(0, 2**32 - 1))
def test_interleaved_groups(store_flags, c, seed):
    store, flags = store_flags
    controlled = store.theta[flags].tolist()
    assert store.controlled_norm() == math.sqrt(math.fsum(x * x for x in controlled))

    scaled = store.snapshot()
    scaled.scale_controlled(c)
    assert np.array_equal(scaled.theta[~flags], store.theta[~flags])
    assert np.array_equal(scaled.theta[flags], store.theta[flags] * c)

    rng = np.random.default_rng(seed)
    g = rng.normal(size=store.theta.size)
    eta, r, k = float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.0, 2.5)), float(rng.uniform(0.0, 1.0))
    sched = ScheduleSpec(horizon=1, eta=CosineSpec(eta, eta), rt=PiecewiseLinearSpec.const(r),
                         kt=PiecewiseLinearSpec.const(k))
    for variant in Variant:
        # alpha 1e-4 keeps each Adam update below a tenth of any nonzero element,
        # so no element lands near zero by cancellation.
        cfg = OptimizerConfig(alpha=1e-4, weight_decay=0.2, variant=variant)
        prod, state = store.snapshot(), OptimizerState.zeros(store.theta.size)
        oracle = oracle_from_store(prod, state)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-zero controlled set
            optim.step(prod, state, g, 1, sched, cfg)
        oracle_step(oracle, g, 1, eta, r, k, cfg)
        for got, want in zip(prod.theta.tolist(), oracle.theta):
            assert abs(got - want) <= max(1e-13 * max(abs(got), abs(want)), 1e-15), variant


def _fsum_norm(x: np.ndarray) -> float:
    """The reference: ldexp(sqrt(fsum(y * y)), exp) with y = x / 2**exp."""
    biggest = float(np.max(np.abs(x))) if x.size else 0.0
    if biggest == 0.0:
        return 0.0
    if math.isinf(biggest):
        return math.inf
    exp = math.frexp(biggest)[1]
    y = x * 2.0 ** -1024 if exp == 1024 else x / math.ldexp(1.0, exp)  # 2**1024 overflows
    try:
        return math.ldexp(math.sqrt(math.fsum((y * y).tolist())), exp)
    except OverflowError:
        return math.inf


def _store_with_controlled(rng, controlled: np.ndarray, length: int | None = None) -> ParamStore:
    """Controlled groups holding `controlled`, with uncontrolled groups between:
    1-8 of them cut at random, or groups of `length` elements each."""
    if length is None:
        n_groups = int(rng.integers(1, min(8, max(controlled.size, 1)) + 1))
        cuts = np.sort(rng.integers(0, controlled.size + 1, n_groups - 1)).tolist()
    else:
        cuts = list(range(length, controlled.size, length))
    parts = np.split(controlled, cuts)
    groups, chunks, offset = [], [], 0
    for i, part in enumerate(parts):
        gap = rng.normal(size=int(rng.integers(0, 40))) * 1e200
        for vals, flag in ((gap, False), (part, True)):
            groups.append(ParamGroup(f"g{i}{flag}", offset, vals.size, flag))
            chunks.append(vals)
            offset += vals.size
    return ParamStore(np.concatenate(chunks), groups)


@pytest.mark.parametrize("size", [
    params._FSUM_MAX - 1, params._FSUM_MAX, params._FSUM_MAX + 1,  # fsum, then the extraction
    params._EXACT_CUTOFF - 1, params._EXACT_CUTOFF, params._EXACT_CUTOFF + 1,
    1023, 1024,
    params._ROW - 1, params._ROW, params._ROW + 1,  # a short last row, or none
    params._CHUNK - 1, params._CHUNK, params._CHUNK + 1, params._CHUNK + params._ROW + 1,
    2 * params._CHUNK - 1, 2 * params._CHUNK, 2 * params._CHUNK + 1, 6 * params._CHUNK + 7,
    # many controlled groups, whose pieces share one block: (groups, elements per group)
    pytest.param((2000, 1), id="2000x1"), pytest.param((40, 100), id="40x100"),
])
def test_controlled_norm_bitwise_equals_fsum_formula(size):
    rng = np.random.default_rng(size)
    length = None
    if isinstance(size, tuple):
        size, length = size[0] * size[1], size[1]
    for magnitude in (1e-320, 1e-300, 1e-150, 1e-5, 1.0, 1e150, 1e300):
        x = rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3, size) * magnitude
        x[rng.random(size) < 0.2] = 0.0
        store = _store_with_controlled(rng, x, length)
        assert store.controlled_norm() == _fsum_norm(x), magnitude
    for top in (2.0 ** 1023, 9e307, 1.7e308):  # frexp's exponent is 1024
        for spread in (1e-10, 1.0):  # the norm is finite, or above the largest double
            x = rng.uniform(-1.0, 1.0, size) * spread * top
            x[rng.integers(size)] = top
            store = _store_with_controlled(rng, x, length)
            assert store.controlled_norm() == _fsum_norm(x), (top, spread)
    for bottom in (3 * 2.0 ** -1025, 3 * 2.0 ** -1026):  # exp -1023 multiplies, -1024 divides
        x = rng.uniform(-1.0, 1.0, size) * bottom
        x[rng.integers(size)] = bottom
        assert _store_with_controlled(rng, x, length).controlled_norm() == _fsum_norm(x), bottom
    zeros = _store_with_controlled(rng, np.zeros(size), length)
    assert zeros.controlled_norm() == 0.0
    for bad, want in (([math.inf], math.inf), ([-math.inf], math.inf),
                      ([math.nan], math.nan), ([math.inf, math.nan], math.nan)):
        x = rng.normal(size=size)
        x[rng.choice(size, len(bad), replace=False)] = bad
        got = _store_with_controlled(rng, x, length).controlled_norm()
        assert got == want or (math.isnan(got) and math.isnan(want)), bad


def test_controlled_norm_at_the_top_of_the_double_range():
    # max|x| >= 2**1023 puts the scale at 2**1024, which is not a double.
    x = [9e307, 1.0]
    assert ParamStore(np.array(x), [ParamGroup("a", 0, 2)]).controlled_norm() == 9e307
    assert oracle_controlled_norm(x, [True, True]) == 9e307
    for n, want in ((4, 2 * 8.9e307), (5, math.inf), (2000, math.inf)):  # 8.9e307 * sqrt(n)
        store = ParamStore(np.full(n, 8.9e307), [ParamGroup("a", 0, n)])
        assert store.controlled_norm() == want, n


def test_exact_tie_reaches_the_fsum_fallback():
    # Squares 0.25 + 2 * 2**-56 lie exactly halfway between 0.25 and the next
    # double, so no error bound can certify the rounding; fsum rounds to even.
    x = np.zeros(params._EXACT_CUTOFF + 1)
    x[0], x[1], x[2] = 0.5, 2.0**-28, 2.0**-28
    squares = x * x
    assert params._certified_sum([squares.copy()], squares.size) is None
    assert math.fsum(squares.tolist()) == 0.25
    assert ParamStore(x, [ParamGroup("w", 0, x.size)]).controlled_norm() == 0.5
    squares[3] = 2.0**-60  # off the tie: certified, and still fsum's value
    assert params._certified_sum([squares.copy()], squares.size) == math.fsum(squares.tolist())


@pytest.mark.parametrize("n", [params._FSUM_MAX, params._EXACT_CUTOFF - 1])
def test_exact_tie_on_the_gathered_path_sums_the_untouched_squares(n):
    # The tie above, in one gathered block: the extraction fails to certify it
    # and has overwritten its block, so fsum must run over the squares themselves.
    x = np.zeros(n)
    x[0], x[1], x[2] = 0.5, 2.0**-28, 2.0**-28
    squares = x * x
    assert params._certified_sum((squares.copy(),), n) is None
    for store in _small_stores(x):
        assert store.controlled_norm() == 0.5


@pytest.mark.parametrize("n", [1, 2, params._FSUM_MAX, params._EXACT_CUTOFF, 1023, 1024,
                               params._ROW - 1, params._ROW, params._ROW + 1,
                               params._CHUNK, params._CHUNK + 1,
                               params._CHUNK + params._ROW + 1, 2 * params._CHUNK,
                               2 * params._CHUNK + 1, 6 * params._CHUNK + 7])
def test_the_certified_sum_certifies_ordinary_inputs(n):
    # A bound that is too loose would send every call to the slow fsum fallback.
    rng = np.random.default_rng(n)
    smallest = rng.uniform(0.0, 1e-12, n)  # the least total a store can have:
    smallest[rng.integers(n)] = 0.25       # one square of 1/4, the rest tiny
    for squares in (rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n) ** 8, smallest):
        blocks = [squares[i:i + params._CHUNK].copy() for i in range(0, n, params._CHUNK)]
        assert params._certified_sum(blocks, n) == math.fsum(squares.tolist())


def test_certified_norm_buffers_fit_the_store():
    # A store just past _EXACT_CUTOFF takes the blockwise path; its buffers
    # hold what the store needs, not two half-blocks of _CHUNK floats.
    n = params._EXACT_CUTOFF
    store = ParamStore(np.random.default_rng(4).normal(size=n), [ParamGroup("w", 0, n)])
    tracemalloc.start()
    try:
        store.controlled_norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, f"controlled_norm peaked at {peak} bytes for {n} elements"


@pytest.mark.parametrize("flag", ["false", 2, None, 1.0])
def test_a_group_whose_controlled_is_not_a_bool_is_rejected(flag):
    # else the truthy "false" controls b: the norm over [3, 4, 100] was 100.12, not 5
    with pytest.raises(TypeError, match=f"group 'b': controlled is not a bool: {flag!r}"):
        ParamGroup("b", 2, 1, controlled=flag)
    store = ParamStore(np.array([3.0, 4.0, 100.0]),
                       [ParamGroup("w", 0, 2), ParamGroup("b", 2, 1, controlled=np.False_)])
    assert store.controlled_norm() == 5.0


def _small_stores(x: np.ndarray) -> list[ParamStore]:
    """x as the controlled elements of a one-slice store and of a multi-slice one
    (an empty controlled group first, then x's halves around an uncontrolled group)."""
    half = x.size // 2
    one = ParamStore(np.concatenate([[7.0], x, [7.0]]),
                     [ParamGroup("u", 0, 1, False), ParamGroup("w", 1, x.size),
                      ParamGroup("v", x.size + 1, 1, False)])
    many = ParamStore(np.concatenate([x[:half], [1e300], x[half:]]),
                      [ParamGroup("e", 0, 0), ParamGroup("w1", 0, half),
                       ParamGroup("u", half, 1, False), ParamGroup("w2", half + 1, x.size - half)])
    assert isinstance(one._gather, slice) and isinstance(many._gather, np.ndarray)
    return [one, many]


def _above(v: float) -> float:
    return math.nextafter(v, math.inf)


def _below(v: float) -> float:
    return math.nextafter(v, 0.0)


def _threshold_inputs(n: int):
    # Each pair sits on and just past one bound of the unscaled-square screen
    # that small stores once took: the least square m against 2**-1021, the
    # sum r against 2**1000 and r against 2**1018 * m.
    lo = math.sqrt(2.0 ** -1021)  # the least double whose square rounds to >= 2**-1021
    while _below(lo) * _below(lo) >= 2.0 ** -1021:
        lo = _below(lo)
    while lo * lo < 2.0 ** -1021:
        lo = _above(lo)
    cases = [(lo, lo), (_below(lo), _below(lo)),  # (x[0], every other element)
             (2.0 ** 500, 1.0), (_above(2.0 ** 500), 1.0)]  # r = 2**1000 + (n - 1)
    if n > 1:  # r = 1 + (n - 1) * m rounds to 1
        cases += [(1.0, 2.0 ** -509), (1.0, _below(2.0 ** -509))]
    for top, rest in cases:
        x = np.full(n, rest)
        x[0] = top
        yield x


def _spread_tie_inputs(n: int):
    # fl(a**2) = 1.125 * 2**999 and 2**946 is half its last place: a tie,
    # which fsum rounds to even, down. The tiny element's square, 2**-1020,
    # breaks the tie upward in the unscaled sum, but scaled by 2**-500 it
    # underflows to 0, so the formula's value is a tie rounded down: sqrt of
    # the unscaled sum is one place too high.
    x = np.array([1.5 * 2.0 ** 499, 2.0 ** 473, 2.0 ** -510])
    assert x.size == n
    assert math.sqrt(math.fsum((x * x).tolist())) == math.nextafter(_fsum_norm(x), math.inf)
    yield x


def _special_inputs(n: int):
    rng = np.random.default_rng(n)
    for special in (0.0, -0.0, 5e-324, 2.0 ** -1030, 1e-300, math.inf, -math.inf, math.nan):
        x = rng.uniform(0.5, 2.0, n)
        x[int(rng.integers(n))] = special
        yield x
    yield rng.uniform(0.5, 2.0, n)
    x = np.array([1e154, 1e154])  # every square is finite, but their sum overflows
    assert _fsum_norm(x) == 1.414213562373095e+154
    yield x


def _magnitude_inputs(n: int):
    rng = np.random.default_rng(100 + n)
    for magnitude in (1e-320, 1e-300, 1e-160, 1e-150, 1e-5, 1.0, 1e5, 1e150, 1e160, 1e300):
        for spread in (0.0, 3.0, 30.0):
            with np.errstate(over="ignore", under="ignore"):
                yield rng.normal(size=n) * 10.0 ** rng.uniform(-spread, spread, n) * magnitude


@pytest.mark.parametrize("inputs, n", [
    pytest.param(_threshold_inputs, 1, id="threshold-1"),
    pytest.param(_threshold_inputs, 2, id="threshold-2"),
    pytest.param(_threshold_inputs, params._FSUM_MAX, id="threshold-256"),
    pytest.param(_threshold_inputs, params._EXACT_CUTOFF - 1, id="threshold-999"),
    pytest.param(_spread_tie_inputs, 3, id="spread_tie-3"),
    pytest.param(_special_inputs, 1, id="special-1"),
    pytest.param(_special_inputs, params._FSUM_MAX, id="special-256"),
    pytest.param(_special_inputs, params._EXACT_CUTOFF - 1, id="special-999"),
    pytest.param(_magnitude_inputs, 1, id="magnitude-1"),
    pytest.param(_magnitude_inputs, params._FSUM_MAX, id="magnitude-256"),
    pytest.param(_magnitude_inputs, params._EXACT_CUTOFF - 1, id="magnitude-999"),
])
def test_a_small_store_norm_is_the_formula(inputs, n):
    # Zeros, subnormals, inf, NaN, a sum of squares past the largest double,
    # and each magnitude and spread: a small store computes the formula itself.
    for x in inputs(n):
        want = _fsum_norm(x)
        for store in _small_stores(x):
            got = store.controlled_norm()
            assert got == want or (math.isnan(got) and math.isnan(want)), x[:3]


@settings(max_examples=100, deadline=None)
@given(st.integers(params._FSUM_MAX - 2, params._EXACT_CUTOFF - 1), st.integers(0, 2**32 - 1),
       st.integers(-320, 300))
def test_a_gathered_store_norm_is_the_formula_across_the_crossover(n, seed, magnitude):
    rng = np.random.default_rng(seed)
    with np.errstate(under="ignore"):
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n) * 10.0 ** magnitude
    x[rng.random(n) < 0.2] = 0.0
    assert _store_with_controlled(rng, x).controlled_norm() == _fsum_norm(x), magnitude


def test_a_large_store_builds_no_gather_index():
    # 10 controlled groups of 10**5 elements, uncontrolled groups between:
    # construction allocates theta's copy and the norm's block buffers only.
    n, k = 10 ** 5, 10
    groups, offset = [], 0
    for i in range(k):
        groups += [ParamGroup(f"w{i}", offset, n), ParamGroup(f"u{i}", offset + n, 3, False)]
        offset += n + 3
    theta = np.random.default_rng(9).normal(size=offset)
    tracemalloc.start()
    try:
        store = ParamStore(theta, groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert store._gather is None
    assert peak < theta.nbytes + 2 * 1024 * 1024, f"building the store peaked at {peak} bytes"
