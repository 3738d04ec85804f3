import os
import random
import tracemalloc
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cloneops import (CapExceeded, Domain, Operation, OperationSet, commutes,
                      enumerate_centraliser, enumerate_polymorphisms,
                      family_op, full_relation, graph_of, make_projection,
                      preserves, relation, snow_t, sparse_op)
import cloneops.commutation as commutation
from cloneops.commutation import (_Grid, _count_dtype, _member_test, _product_dtype,
                                  preserve_mask)
from cloneops.core import _digit_matrix, _key_width, _row_keys


def unary(d, *values):
    return Operation(d, 1, tuple(values))


def _survivors(blocks, grid):
    """Boolean mask of the live candidates of blocks, grids cut from grid, over
    all of grid's (triple, extension) pairs; no candidate lies in two blocks."""
    mask = np.zeros(len(grid.base) * len(grid.ext), dtype=bool)
    for block in blocks:
        ti, ei = block.pairs()
        mask[ti * len(grid.ext) + ei] = True
    assert mask.sum() == sum(map(len, blocks))
    return mask


def _pattern_mask(tables, member):
    """Mask of the candidate tables that the ternary test of member keeps."""
    _, test = _member_test(member, 3)
    grid = _Grid.of(tables)
    return _survivors(test(grid), grid)


def expected_binary_catalog(d3):
    """The projections, the z family and the bordered family: 65 operations."""
    ops = [make_projection(d3, 2, 1), make_projection(d3, 2, 2)]
    ops += [family_op("z", (a,), d3) for a in range(3)]
    for c in (1, 2):
        for a in (0, c):
            for edges in product((0, c), repeat=4):
                if edges == (0, 0, 0, 0):
                    continue
                ops.append(family_op("fam", (a, edges), d3))
    return OperationSet.from_operations(d3, ops)


def test_commutes_examples(d3, t3):
    assert commutes(make_projection(d3, 1, 1), t3)
    assert commutes(unary(d3, 0, 0, 2), t3)
    assert not commutes(unary(d3, 0, 1, 1), t3)


def test_commutes_domain_mismatch(t3):
    with pytest.raises(ValueError):
        commutes(make_projection(Domain(2), 1, 1), t3)


def test_preserves_examples(d3):
    rng = random.Random(0)
    op = Operation(d3, 2, tuple(rng.randrange(3) for _ in range(9)))
    assert preserves(op, full_relation(d3, 2))
    assert preserves(unary(d3, 0, 0, 2), relation(d3, 1, [(0,), (2,)]))
    assert not preserves(unary(d3, 1, 1, 1), relation(d3, 1, [(0,), (2,)]))


def test_family_tables(d3):
    assert family_op("u", (2, 1), d3).table == (0, 0, 1)
    assert family_op("z", (0,), d3).table == (0,) * 9
    fam = family_op("fam", (0, (2, 2, 2, 2)), d3)
    assert fam.table == (0, 0, 2, 0, 0, 2, 2, 2, 0)
    assert family_op("delta", ((1, 2),), d3).table == (0, 0, 0, 0, 0, 1, 0, 0, 0)


def test_family_validation(d3):
    with pytest.raises(ValueError):
        family_op("u", (1, 0), d3)          # index must avoid 0 and 1
    with pytest.raises(ValueError):
        family_op("fam", (1, (2, 0, 0, 0)), d3)  # mixed nonzero values
    with pytest.raises(ValueError):
        family_op("fam", (0, (0, 0, 0, 0)), d3)
    with pytest.raises(ValueError):
        family_op("delta", ((1, 1),), d3)
    with pytest.raises(ValueError):
        family_op("zap", (0,), d3)


def test_unary_centraliser_exact(d3, unary_centraliser):
    expected = OperationSet.from_operations(
        d3, [make_projection(d3, 1, 1)] + [unary(d3, 0, 0, a) for a in range(3)])
    assert unary_centraliser == expected
    assert unary_centraliser.count(1) == 4


def test_binary_centraliser_is_the_catalog(d3, binary_centraliser):
    assert binary_centraliser.count(2) == 65
    assert binary_centraliser == expected_binary_catalog(d3)


def test_polymorphisms_of_graph_agree_with_centraliser(t3, binary_centraliser):
    polys = enumerate_polymorphisms([graph_of(t3)], 2)
    assert polys == binary_centraliser


def test_polymorphisms_full_relation():
    d2 = Domain(2)
    assert enumerate_polymorphisms([full_relation(d2, 1)], 2).count(2) == 16


def test_polymorphisms_unary_01(d3):
    rel01 = relation(d3, 1, [(0,), (1,)])
    got = enumerate_polymorphisms([rel01], 1)
    # oracle: brute force over the 27 unary tables
    expected = [t for t in product(range(3), repeat=3) if t[0] <= 1 and t[1] <= 1]
    assert got.count(1) == len(expected) == 12


def test_commutation_is_symmetric(d3, t3):
    rng = random.Random(1)
    ops = [Operation(d3, a, tuple(rng.randrange(3) for _ in range(3 ** a)))
           for a in (1, 1, 2, 2) for _ in range(3)]
    ops.append(t3)
    for f in ops:
        for g in ops:
            if f.arity * g.arity <= 8:
                assert commutes(f, g) == commutes(g, f)


def test_commutes_iff_preserves_graph(d3):
    rng = random.Random(2)
    for _ in range(30):
        fa, ga = rng.choice([1, 2]), rng.choice([1, 2])
        f = Operation(d3, fa, tuple(rng.randrange(3) for _ in range(3 ** fa)))
        g = Operation(d3, ga, tuple(rng.randrange(3) for _ in range(3 ** ga)))
        assert commutes(g, f) == preserves(g, graph_of(f))


def test_projections_commute_with_everything(d3):
    rng = random.Random(3)
    for _ in range(10):
        a = rng.choice([1, 2, 3])
        op = Operation(d3, a, tuple(rng.randrange(3) for _ in range(3 ** a)))
        for n in (1, 2):
            for i in range(1, n + 1):
                assert commutes(make_projection(d3, n, i), op)


def test_centraliser_is_composition_closed(d3, binary_centraliser):
    from cloneops import compose
    rng = random.Random(4)
    members = list(binary_centraliser.members(2))
    for _ in range(25):
        g = rng.choice(members)
        hs = [rng.choice(members) for _ in range(2)]
        assert compose(g, hs) in binary_centraliser


def test_implications_of_the_unary_approximation(d3, t3_set):
    c1 = enumerate_centraliser(t3_set, 1)
    slice2 = enumerate_centraliser(c1, 2)
    for g in slice2.members(2):
        for a in range(3):
            if g(1, 2) == 2:
                assert g(0, a) == a
            if g(2, 1) == 2:
                assert g(a, 0) == a
            if g(1, 2) in (0, 1):
                assert g(0, a) == 0
            if g(2, 1) in (0, 1):
                assert g(a, 0) == 0


def test_almost_conservative(d3, t3_set):
    c1 = enumerate_centraliser(t3_set, 1)
    slice2 = enumerate_centraliser(c1, 2)
    zero_unaries = [relation(d3, 1, [(v,) for v in sorted(s)])
                    for s in [{0}, {0, 1}, {0, 2}, {0, 1, 2}]]
    eq_01 = relation(d3, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    eq_all = full_relation(d3, 2)
    for g in slice2.members(2):
        for rel in zero_unaries + [eq_01, eq_all]:
            assert preserves(g, rel)
    # the unary slice of the same approximation is almost conservative as well
    for g in enumerate_centraliser(c1, 1).members(1):
        for rel in zero_unaries:
            assert preserves(g, rel)


def test_arity_cap_and_budget(t3_set):
    with pytest.raises(ValueError):
        enumerate_centraliser(t3_set, 4)
    with pytest.raises(CapExceeded):
        enumerate_centraliser(t3_set, 2, budget=100)


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_rejected_before_any_work(t3_set, d3, t3, budget, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the budget check")
    for name in ("_member_test", "_table_grids", "_ternary_grids", "_run_filters"):
        monkeypatch.setattr(commutation, name, no_work)
    for arity in (1, 2, 3):
        with pytest.raises(ValueError, match=f"budget must be at least 1, got {budget}"):
            enumerate_centraliser(t3_set, arity, budget=budget)
    with pytest.raises(ValueError, match=f"budget must be at least 1, got {budget}"):
        enumerate_polymorphisms([graph_of(t3)], 1, budget=budget)


def test_commute_mask_matches_scalar(d3, t3):
    rng = np.random.default_rng(5)
    tables = rng.integers(0, 3, size=(40, 9), dtype=np.uint8)
    mask = preserve_mask(tables, graph_of(t3), 2)
    for row, ok in zip(tables, mask):
        g = Operation(d3, 2, tuple(int(v) for v in row))
        assert commutes(g, t3) == bool(ok)


def test_ternary_pattern_matches_sweep(d3, t3):
    rng = np.random.default_rng(6)
    tables = rng.integers(0, 3, size=(120, 27), dtype=np.uint8)
    proj = np.array([[t[i] for t in product(range(3), repeat=3)] for i in range(3)],
                    dtype=np.uint8)
    tables = np.vstack([tables, proj])
    fast = _pattern_mask(tables, t3)
    slow = preserve_mask(tables, graph_of(t3), 3)
    assert np.array_equal(fast, slow)
    assert fast[-3:].all()  # the projections commute


def test_threads_give_identical_results(t3_set):
    single = enumerate_centraliser(t3_set, 2, threads=1)
    multi = enumerate_centraliser(t3_set, 2, threads=4)
    assert single == multi


def test_operation_set_rejects_mixed_domains(d3, t3):
    with pytest.raises(ValueError):
        OperationSet.from_operations(d3, [t3, make_projection(Domain(2), 1, 1)])


def test_operation_set_rejects_domains_beyond_uint8():
    with pytest.raises(ValueError):
        OperationSet(Domain(300), {1: np.array([[256] + [0] * 299])})


def test_operation_set_range_check_precedes_the_cast(d3):
    # 256 would wrap to the valid entry 0 in uint8
    with pytest.raises(ValueError):
        OperationSet(d3, {1: np.array([[256, 0, 0]])})
    with pytest.raises(ValueError):
        OperationSet(d3, {1: np.array([[-1, 0, 0]])})


class _SerialPool:
    """Stand-in for ThreadPoolExecutor: records max_workers, starts no thread."""
    sizes: list = []

    def __init__(self, max_workers):
        _SerialPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_threads_clamped_to_cpu_count(monkeypatch, t3_set, binary_centraliser):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # the search imports the pool only when it runs on several threads
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    assert enumerate_centraliser(t3_set, 2, threads=64) == binary_centraliser
    polys = enumerate_polymorphisms([graph_of(snow_t(3))], 2, threads=64)
    assert polys == binary_centraliser
    d2 = Domain(2)
    maximum = OperationSet.from_operations(d2, [Operation(d2, 2, (0, 1, 1, 1))])
    assert enumerate_centraliser(maximum, 3, threads=64) == \
        enumerate_centraliser(maximum, 3, threads=1)
    assert _SerialPool.sizes and set(_SerialPool.sizes) == {2}


@st.composite
def _member(draw, k, arities):
    """A member of the given arities: unary, {0,1}-valued with 0-3 ones, or any table."""
    d = Domain(k)
    arity = draw(st.sampled_from(arities))
    size = k ** arity
    kind = draw(st.sampled_from(["sparse", "any"]))
    if arity == 1 or kind == "any":
        table = draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size))
    else:
        ones = draw(st.sets(st.integers(0, size - 1), max_size=min(3, size)))
        table = [int(i in ones) for i in range(size)]
    return Operation(d, arity, tuple(table))


@st.composite
def _member_and_candidates(draw):
    k = draw(st.sampled_from([2, 3]))
    d = Domain(k)
    f = draw(_member(k, [1, 2, 3]))
    ell = draw(st.integers(1, 3))
    width = k ** ell
    rows = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=width, max_size=width),
                         min_size=1, max_size=12))
    # projections and constants commute with many members, copies of them
    # with one cell changed fail few equations, random tables fail many
    cells = _digit_matrix(ell, k, np.uint8)
    near = np.vstack([cells.T, np.repeat(np.arange(k, dtype=np.uint8)[:, None], width, axis=1)])
    edits = draw(st.lists(st.tuples(st.integers(0, len(near) - 1), st.integers(0, width - 1),
                                    st.integers(0, k - 1)), max_size=6))
    perturbed = near[[i for i, _, _ in edits]]
    for row, (_, cell, value) in zip(perturbed, edits):
        row[cell] = value
    return d, f, ell, np.vstack([np.array(rows, dtype=np.uint8), near, perturbed])


@settings(max_examples=150, deadline=None)
@given(_member_and_candidates())
def test_graph_mask_agrees_with_scalar_commutes(case):
    d, f, ell, tables = case
    mask = preserve_mask(tables, graph_of(f), ell)
    # the exact test picked for f agrees on the same candidates as a flat grid
    grid = _Grid.of(tables)
    assert np.array_equal(_survivors(_member_test(f, ell)[1](grid), grid), mask)
    if f.arity * ell <= 6:      # the scalar scan visits k^(arity * ell) matrices
        for row, ok in zip(tables, mask):
            g = Operation(d, ell, tuple(int(v) for v in row))
            assert commutes(g, f) == bool(ok)


def test_count_dtype_follows_the_exact_bound():
    for ell, int32_max, int64_max in [
            (1, 18, 39),    # 2 * 3^18 < 2^31 <= 2 * 3^19; 3^39 < 2^63 <= 3^40
            (2, 9, 19),     # 4 * 3^18 < 2^31 <= 4 * 3^20; 3^38 < 2^63 <= 3^40
            (3, 5, 13)]:    # 8 * 3^15 < 2^31 <= 8 * 3^18; 3^39 < 2^63 <= 3^42
        assert _count_dtype(3, int32_max, ell) == np.int32
        assert _count_dtype(3, int32_max + 1, ell) == np.int64
        assert _count_dtype(3, int64_max, ell) == np.int64
        with pytest.raises(CapExceeded):
            _count_dtype(3, int64_max + 1, ell)


def test_product_dtype_flips_at_the_float_mantissas():
    # the exact bound k^(ell r) against 2^24 (float32) and 2^53 (float64)
    for ell, r in [(1, 23), (2, 11), (3, 7)]:       # 2^23, 2^22, 2^21
        assert _product_dtype(2, r, ell) == np.float32
    for ell, r in [(1, 24), (2, 12), (3, 8)]:       # 2^24
        assert _product_dtype(2, r, ell) == np.float64
    assert _product_dtype(2, 52, 1) == np.float64
    assert _product_dtype(2, 53, 1) == np.int64
    assert _product_dtype(3, 15, 1) == np.float32   # 3^15 < 2^24 < 3^16
    assert _product_dtype(3, 16, 1) == np.float64
    assert _product_dtype(3, 11, 3) == np.float64   # 3^33 < 2^53 < 3^34
    assert _product_dtype(3, 34, 1) == np.int64


def test_counting_beyond_int64_is_refused_up_front(monkeypatch, d3):
    import cloneops.commutation as commutation
    member = sparse_op(d3, 14, {(2,) * 14: 1})
    with pytest.raises(CapExceeded, match="beyond int64"):
        _member_test(member, 3)
    # the ternary slice refuses it before the binary slice is built
    monkeypatch.setattr(commutation, "all_tables", None)
    with pytest.raises(CapExceeded, match="beyond int64"):
        enumerate_centraliser(OperationSet.from_operations(d3, [member]), 3)


def test_low_arity_slices_count_without_graphs(monkeypatch, t3_set, binary_centraliser):
    import cloneops.commutation as commutation
    built = []
    monkeypatch.setattr(commutation, "graph_of", lambda op: built.append(op) or graph_of(op))
    t4 = snow_t(4)
    unary4, stats = enumerate_centraliser(OperationSet.from_operations(t4.domain, [t4]), 1,
                                          return_stats=True)
    assert unary4.count(1) == 4 ** 2 + 1
    assert [f["test"] for f in stats.details["filters"]] == ["counting"]
    assert enumerate_centraliser(t3_set, 2) == binary_centraliser
    assert built == []
    assert unary4 == enumerate_polymorphisms([graph_of(t4)], 1)


def test_ternary_filter_counts_for_t_and_u(d3):
    fs = OperationSet.from_operations(d3, [snow_t(3), family_op("u", (2, 1), d3)])
    result, stats = enumerate_centraliser(fs, 3, return_stats=True)
    assert stats.candidates == 5_977_800
    assert stats.survivors == result.count(3) == 524_291
    flow = [(f["arity"], f["test"], f["in"], f["out"]) for f in stats.details["filters"]]
    assert flow == [(1, "unary", 5_977_800, 524_413), (4, "counting", 524_413, 524_291)]


@pytest.mark.parametrize("threads", [1, 2])
def test_ternary_survivor_keys_are_held_once(d3, monkeypatch, threads):
    # the 524,291 uint64 keys (4.19 MB) are held once: the peak leaves room for
    # the temporaries of one block of keys, not for a second copy of them all
    fs = OperationSet.from_operations(d3, [snow_t(3), family_op("u", (2, 1), d3)])
    run_filters, seen = commutation._run_filters, []

    def traced(*args):
        tracemalloc.start()
        try:
            keys, flow = run_filters(*args)
            seen.append((tracemalloc.get_traced_memory()[1], keys.nbytes))
        finally:
            tracemalloc.stop()
        return keys, flow

    monkeypatch.setattr(commutation, "_run_filters", traced)
    assert enumerate_centraliser(fs, 3, threads=threads).count(3) == 524_291
    peak, key_bytes = seen[-1]
    assert key_bytes == 524_291 * 8
    assert peak < 1.25 * key_bytes


def test_binary_filter_counts(t3_set):
    _, stats = enumerate_centraliser(t3_set, 2, return_stats=True)
    assert stats.details["filters"] == [
        {"member": 0, "arity": 4, "test": "counting", "in": 3 ** 9, "out": 65}]


@settings(max_examples=60, deadline=None)
@given(st.lists(_member(2, [1, 2, 3]), min_size=1, max_size=3))
def test_ternary_centraliser_matches_polymorphisms_k2(members):
    fs = OperationSet.from_operations(Domain(2), members)
    expected = enumerate_polymorphisms([graph_of(f) for f in fs.members()], 3)
    assert enumerate_centraliser(fs, 3) == expected


_FREE_K3 = [i for i, t in enumerate(product(range(3), repeat=3)) if len(set(t)) == 3]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(_member(3, [1, 2, 3]), st.just(snow_t(3))), min_size=1, max_size=2),
       st.integers(0, 2 ** 32 - 1))
# T's count cuts across both axes, then u's join runs on the masked grid
@example([snow_t(3), family_op("u", (2, 1), Domain(3))], 0)
def test_grid_filters_match_sweep_k3(members, seed):
    rng = np.random.default_rng(seed)
    cells = np.array(list(product(range(3), repeat=3)), dtype=np.uint8)
    # projections and constants commute with many members; perturbed copies
    # and random tables mostly do not
    near = np.vstack([cells.T, np.repeat(np.arange(3, dtype=np.uint8)[:, None], 27, axis=1)])
    perturbed = near[rng.integers(0, len(near), 4)].copy()
    perturbed[np.arange(4), rng.integers(0, 27, 4)] = rng.integers(0, 3, 4)
    base = np.vstack([near, perturbed, rng.integers(0, 3, (3, 27), dtype=np.uint8)])
    fillings = _digit_matrix(6, 3, np.uint8)
    ext = np.vstack([base[:, _FREE_K3], fillings[rng.choice(3 ** 6, 10, replace=False)]])
    grid = _Grid.of(base, ext, _FREE_K3)
    tables = grid.tables()
    expected = np.ones(len(tables), dtype=bool)
    blocks = [grid]
    for f in members:
        blocks = [part for block in blocks for part in _member_test(f, 3)[1](block)]
        expected &= preserve_mask(tables, graph_of(f), 3)
        assert np.array_equal(_survivors(blocks, grid), expected)
    assert expected.any()   # the projections survive


def _grid_over(k, ell, free, rng):
    """A grid with the given free cells of A^ell (possibly none).

    Its base rows are projections and constants, which commute with many
    members, copies of them with one cell changed and random tables; its
    fillings are the base rows' own values in the free cells and random ones.
    """
    width = k ** ell
    cells = _digit_matrix(ell, k, np.uint8)
    near = np.vstack([cells.T, np.repeat(np.arange(k, dtype=np.uint8)[:, None], width, axis=1)])
    perturbed = near[rng.integers(0, len(near), 4)].copy()
    perturbed[np.arange(4), rng.integers(0, width, 4)] = rng.integers(0, k, 4)
    base = np.vstack([near, perturbed, rng.integers(0, k, (3, width), dtype=np.uint8)])
    if not free:
        return _Grid.of(base)
    ext = np.vstack([base[:, free], rng.integers(0, k, (4, len(free)), dtype=np.uint8)])
    return _Grid.of(base, ext, free)


@st.composite
def _grid_case(draw, k, ell):
    """A grid over a random share (none, some or all) of the cells of A^ell as free cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    share = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    return _grid_over(k, ell, [c for c in range(k ** ell) if rng.random() < share], rng)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([(2, 1), (2, 3), (2, 6), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2),
                        (4, 3), (6, 3)]),
       st.sampled_from(["flat", "dense", "masked"]), st.integers(0, 2 ** 32 - 1))
def test_grid_keys_match_the_tables_keys(shape, form, seed):
    # integer keys up to k^ell = 2^64 (k=2, ell=6), byte keys at k=4 and k=6, ell=3
    k, ell = shape
    rng = np.random.default_rng(seed)
    width = k ** ell
    free = [] if form == "flat" else sorted(
        rng.choice(width, rng.integers(1, width + 1), replace=False).tolist())
    # the base rows keep their own values in the free cells
    grid = _grid_over(k, ell, free, rng)
    if form == "dense":     # cut each axis on its own
        grid = grid.keep(rng.random((len(grid.ti), 1)) < 0.7).keep(
            rng.random((1, len(grid.ei))) < 0.7)
        assert grid.live is None
    elif form == "masked":  # cut across both axes
        mask = rng.random(grid.shape) < 0.5
        mask[:2, :2] = [[False, True], [True, True]]
        grid = grid.keep(mask)
        assert grid.live is not None
        assert grid.live.any(axis=0).all() and grid.live.any(axis=1).all()
    expected = _row_keys(grid.tables(), k)
    keys = grid.keys(k)
    assert keys.dtype == expected.dtype and (keys.dtype.kind == "u") == (width <= _key_width(k))
    assert np.array_equal(keys, expected)
    # two triples a part: the parts keep the candidates in order and are cut like keep
    parts = grid.split(max(1, 2 * len(grid.ei)))
    assert np.array_equal(np.concatenate([part.keys(k) for part in parts]), keys)
    for part in parts:
        assert part.live is None or not part.live.all() and (
            part.live.any(axis=0).all() and part.live.any(axis=1).all())


def _all_pairs(grid):
    """The same candidates as a grid with an all-True live mask."""
    return grid._replace(live=np.ones(grid.shape, dtype=bool))


def _cut_across(grid, seed):
    """grid cut by a random mask over its (triple, extension) pairs."""
    return grid.keep(np.random.default_rng(seed).random(grid.shape) < 0.5)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_unary_join_matches_the_pairwise_mask(data):
    k = data.draw(st.sampled_from([2, 3, 4]))
    ell = data.draw(st.integers(1, 3))
    # permutations send many free cells to base cells and back at k=4, ell=3
    table = data.draw(st.one_of(st.permutations(range(k)),
                                st.lists(st.integers(0, k - 1), min_size=k, max_size=k)))
    f = Operation(Domain(k), 1, tuple(table))
    grid = data.draw(_grid_case(k, ell))
    expected = preserve_mask(grid.tables(), graph_of(f), ell)
    blocks = _member_test(f, ell)[1](grid)
    assert all(block.live is None for block in blocks)
    assert np.array_equal(_survivors(blocks, grid), expected)
    assert np.array_equal(_survivors(_member_test(f, ell)[1](_all_pairs(grid)), grid), expected)
    masked = _cut_across(grid, data.draw(st.integers(0, 2 ** 32 - 1)))
    assert np.array_equal(_survivors(_member_test(f, ell)[1](masked), grid),
                          expected & _survivors([masked], grid))


def test_unary_join_keys_wide_signatures():
    # the permutation moves the first argument between even and odd values, and
    # the free cells are those with an even first argument: all 64 equations mix
    # the axes, more than an integer key holds at k=4
    f = Operation(Domain(4), 1, (1, 2, 3, 0))
    free = [i for i, c in enumerate(product(range(4), repeat=3)) if c[0] % 2 == 0]
    assert _key_width(4) < 64
    grid = _grid_over(4, 3, free, np.random.default_rng(7))
    expected = preserve_mask(grid.tables(), graph_of(f), 3)
    blocks = _member_test(f, 3)[1](grid)
    assert expected.any() and all(block.live is None for block in blocks)
    assert np.array_equal(_survivors(blocks, grid), expected)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_counting_with_and_without_a_live_mask_matches_the_sweep(data):
    k = data.draw(st.sampled_from([2, 3]))
    ell = data.draw(st.integers(1, 3))
    r = data.draw(st.integers(2, 3))
    ones = data.draw(st.sets(st.integers(0, k ** r - 1), min_size=1, max_size=3))
    f = Operation(Domain(k), r, tuple(int(i in ones) for i in range(k ** r)))
    grid = data.draw(_grid_case(k, ell))
    expected = preserve_mask(grid.tables(), graph_of(f), ell)
    # every product dtype the bound can pick computes the same counts
    product_dtype = data.draw(st.sampled_from([np.float32, np.float64, np.int64]))
    with patch.object(commutation, "_product_dtype", lambda *args: product_dtype):
        name, test = _member_test(f, ell)
    assert name == "counting"
    assert np.array_equal(_survivors(test(grid), grid), expected)
    assert np.array_equal(_survivors(test(_all_pairs(grid)), grid), expected)
    masked = _cut_across(grid, data.draw(st.integers(0, 2 ** 32 - 1)))
    assert np.array_equal(_survivors(test(masked), grid), expected & _survivors([masked], grid))
