import hashlib
import random
import tracemalloc
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cloneops.clonegen as clonegen
from cloneops import (CapExceeded, Domain, Operation, OperationSet,
                      clone_fragment, commutes, fragment_contains, full_relation,
                      graph_of, make_constant, make_projection, snow_f, snow_t,
                      sparse_op, subuniverse_closure, enumerate_centraliser)
from cloneops.core import TABLE_ENTRY_CAP, _row_dtype, _sorted_distinct
from cloneops.textio import operation_set_blocks


def test_fragment_t3_arities(d3, t3_set):
    f1 = clone_fragment(t3_set, 1)
    assert f1 == OperationSet.from_operations(
        d3, [make_projection(d3, 1, 1), make_constant(d3, 1, 0)])
    f2 = clone_fragment(t3_set, 2)
    expected = OperationSet.from_operations(d3, [
        make_projection(d3, 2, 1), make_projection(d3, 2, 2),
        make_constant(d3, 2, 0),
        sparse_op(d3, 2, {(1, 2): 1}), sparse_op(d3, 2, {(2, 1): 1})])
    assert f2 == expected


def test_fragment_of_wide_tables(t3_set):
    # 81-entry tables at k=3, past the 40 entries an integer key holds: the
    # closure tells them apart by their bytes
    frag = clone_fragment(t3_set, 4)
    text = b"".join(map(bytes, operation_set_blocks(frag, 4)))
    assert text.startswith(b"# count 67\n")
    assert hashlib.sha256(text).hexdigest() == (
        "ba5e1b10a193b27b3eb2588cddab79c0e5863091a748847e6eed12ac4e69196b")


def test_quaternary_fragment_at_k4():
    # one arity past the separating one at k=4: round 1 finds all 61 non-projections
    d4 = Domain(4)
    t4 = OperationSet.from_operations(d4, [snow_t(4)])
    frag = clone_fragment(t4, 4)
    text = b"".join(map(bytes, operation_set_blocks(frag, 4)))
    assert text.startswith(b"# count 65\n")
    assert hashlib.sha256(text).hexdigest() == (
        "56da1481e82674cb67afe2ef7ad9d076d13debc90014243f6bda317e5d8a1d0d")
    # an independent engine: every member commutes, by the scalar test,
    # with all 17 unary operations that commute with T
    unary = list(enumerate_centraliser(t4, 1).members(1))
    assert len(unary) == 17
    assert all(commutes(u, op) for op in frag.members(4) for u in unary)


def test_fragment_of_identity(d3):
    gens = OperationSet.from_operations(d3, [make_projection(d3, 1, 1)])
    f2 = clone_fragment(gens, 2)
    assert f2 == OperationSet.from_operations(
        d3, [make_projection(d3, 2, 1), make_projection(d3, 2, 2)])


def test_fragment_contains(d3, t3_set, f3):
    f2 = clone_fragment(t3_set, 2)
    assert fragment_contains(f2, sparse_op(d3, 2, {(1, 2): 1}))
    assert not fragment_contains(f2, f3)
    assert fragment_contains(f2, make_projection(d3, 2, 1))


def test_fragment_monotone_and_idempotent(d3, t3, t3_set):
    f2 = clone_fragment(t3_set, 2)
    bigger = OperationSet.from_operations(d3, [t3, make_constant(d3, 1, 1)])
    f2_bigger = clone_fragment(bigger, 2)
    assert all(op in f2_bigger for op in f2.members(2))
    # closing again over the fragment plus the generator adds nothing
    regen = OperationSet.from_operations(d3, list(f2.members(2)) + [t3])
    assert clone_fragment(regen, 2) == f2


def test_small_fragments_are_projections_and_constant():
    for k in (3, 4):
        d = Domain(k)
        gens = OperationSet.from_operations(d, [snow_t(k)])
        for n in range(1, k - 1):
            frag = clone_fragment(gens, n)
            expected = OperationSet.from_operations(
                d, [make_projection(d, n, i + 1) for i in range(n)]
                + [make_constant(d, n, 0)])
            assert frag == expected


def test_fragment_structure_at_separating_arity():
    for k in (3, 4):
        d = Domain(k)
        n = k - 1
        frag = clone_fragment(OperationSet.from_operations(d, [snow_t(k)]), n)
        projections = {make_projection(d, n, i + 1).table for i in range(n)}
        for op in frag.members(n):
            if op.table in projections:
                continue
            nonzero = [v for v in op.table if v != 0]
            assert nonzero in ([], [1])
        assert not fragment_contains(frag, snow_f(k))


def test_spike_generator_composing_to_zero(d3):
    # u(u(x)) is constant zero, but no variable identification of u is
    u = Operation(d3, 1, (0, 0, 1))
    frag = clone_fragment(OperationSet.from_operations(d3, [u]), 1)
    assert frag == OperationSet.from_operations(
        d3, [make_projection(d3, 1, 1), u, make_constant(d3, 1, 0)])


def test_generic_path_on_non_spike_generator():
    d2 = Domain(2)
    maximum = Operation(d2, 2, (0, 1, 1, 1))
    frag = clone_fragment(OperationSet.from_operations(d2, [maximum]), 2)
    # max is associative/commutative/idempotent: the fragment is projections + max
    assert frag.count(2) == 3
    assert maximum in frag


def test_closure_work_cap_raises_before_gathering(monkeypatch):
    d2 = Domain(2)
    maximum = OperationSet.from_operations(d2, [Operation(d2, 2, (0, 1, 1, 1))])
    gathered = []
    gathered_images = clonegen._gathered_images
    monkeypatch.setattr(clonegen, "_gathered_images", lambda *a: (
        gathered.append(keys) or keys for keys in gathered_images(*a)))
    # round 1 gathers 2^2 combinations x 1 operation x 4 entries = 16,
    # round 2 (3 rows, 1 new) gathers (3^2 - 2^2) x 4 = 20, as 12 and then 8
    monkeypatch.setattr(clonegen, "CLOSURE_WORK_CAP", 15)
    with pytest.raises(CapExceeded, match="work cap"):
        clone_fragment(maximum, 2)
    assert gathered == []
    monkeypatch.setattr(clonegen, "CLOSURE_WORK_CAP", 19)
    with pytest.raises(CapExceeded, match="work cap"):
        clone_fragment(maximum, 2)
    assert gathered
    monkeypatch.setattr(clonegen, "CLOSURE_WORK_CAP", 20)
    assert clone_fragment(maximum, 2).count(2) == 3


def test_support_image_closure_charges_its_and_blocks(t3_set, monkeypatch):
    # T at k=3 is applied by support images only: 2 points, 81-cell rows in 2 words
    monkeypatch.setattr(clonegen, "_gathered_images", None)
    charges = []
    charge = clonegen._Work.charge
    monkeypatch.setattr(clonegen._Work, "charge",
                        lambda self, n: charges.append(n) or charge(self, n))
    monkeypatch.setattr(clonegen, "CLOSURE_WORK_CAP", 100)
    with pytest.raises(CapExceeded, match="work cap"):
        clone_fragment(t3_set, 4)
    # the points' bitsets of the 4 projections, 4 arguments x 4 rows x 2
    # points x 2 words, fit; the first AND block, 4 x 4 pairs x 2 x 2
    # words, is refused before it is built
    assert charges == [64, 64]


def test_fragment_cap(t3_set):
    with pytest.raises(CapExceeded):
        clone_fragment(t3_set, 2, cap=3)


def test_identification_tables_checked_before_allocating(t3_set, monkeypatch):
    # the 3^12 x 12 projection rows fit, but rows of 3^12 entries outgrow
    # the entry cap after 18 members: refused before the known rows grow
    built = []
    key_rows = clonegen._key_rows
    monkeypatch.setattr(clonegen, "_key_rows", lambda keys, k, m: built.append(len(keys)) or
                        key_rows(keys, k, m))
    with pytest.raises(CapExceeded, match=r"a closure of \d+ rows has \d+ entries, over the cap"):
        clone_fragment(t3_set, 12)
    assert sum(built) * 3 ** 12 <= TABLE_ENTRY_CAP


@pytest.mark.parametrize("gen, arity, count", [
    (Operation(Domain(3), 1, (0, 0, 1)), 1, 3),     # u(u(x)) = 0 needs round 2
    (snow_t(3), 3, 16),
])
def test_fallback_continues_the_first_round(gen, arity, count, monkeypatch):
    # zero-absorbing {0,1}-valued generators whose fragments need more rounds
    calls = []
    fresh_combos = clonegen._fresh_combos
    monkeypatch.setattr(clonegen, "_fresh_combos",
                        lambda *a: calls.append(a) or fresh_combos(*a))
    gens = OperationSet.from_operations(gen.domain, [gen])
    assert clone_fragment(gens, arity).count(arity) == count
    # (known, start, arity): round 1 once, then rounds from start > 0
    assert [c[1] for c in calls].count(0) == 1
    assert any(c[1] > 0 for c in calls)


def test_spike_stop_needs_single_points(d3):
    # g(x, x) is 1 at two points; g(x, g(x, x)) is 1 only at x = 1
    g = sparse_op(d3, 2, {(1, 1): 1, (2, 2): 1})
    zero = make_constant(d3, 1, 0)
    gens = OperationSet.from_operations(d3, [g, zero])
    assert clone_fragment(gens, 1) == OperationSet.from_operations(d3, [
        make_projection(d3, 1, 1), zero,
        Operation(d3, 1, (0, 1, 1)), Operation(d3, 1, (0, 1, 0))])


def test_closure_generating_set(d3, t3_set, f3):
    c1 = enumerate_centraliser(t3_set, 1)
    c2 = enumerate_centraliser(t3_set, 2)
    both = OperationSet.from_operations(
        d3, list(c1.members()) + list(c2.members()))
    closure = subuniverse_closure({(1, 2, 1), (2, 1, 1)}, both)
    assert closure == graph_of(f3)


def test_closure_trivial_cases(d3):
    ident = OperationSet.from_operations(d3, [make_projection(d3, 1, 1)])
    assert subuniverse_closure({(0, 1)}, ident).tuples == ((0, 1),)
    everything = set(product(range(3), repeat=2))
    assert subuniverse_closure(everything, ident) == full_relation(d3, 2)


def test_closure_is_a_fixpoint(d3, t3_set):
    rng = random.Random(7)
    ops = OperationSet.from_operations(
        d3, [Operation(d3, 2, tuple(rng.randrange(3) for _ in range(9)))
             for _ in range(3)])
    seed = {(0, 1, 2), (1, 1, 0)}
    closed = subuniverse_closure(seed, ops)
    for op in ops.members(2):
        for a in closed.tuples:
            for b in closed.tuples:
                image = tuple(op(a[i], b[i]) for i in range(3))
                assert image in closed


def test_closure_empty_seed_rejected(d3, t3_set):
    with pytest.raises(ValueError):
        subuniverse_closure(set(), t3_set)


@st.composite
def _zero_absorbing_generators(draw):
    """1 to 3 {0,1}-valued generators of arity 1..3, zero on every argument with a 0."""
    k = draw(st.sampled_from([2, 3]))
    d = Domain(k)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        arity = draw(st.integers(1, 3))
        table = tuple(0 if 0 in args else draw(st.integers(0, 1))
                      for args in product(range(k), repeat=arity))
        gens.append(Operation(d, arity, table))
    return OperationSet.from_operations(d, gens), draw(st.integers(1, 2))


def _naive_closure(seed, ops):
    """Reference: apply every operation to every combination until nothing is new."""
    closed = set(seed)
    m = len(next(iter(seed)))
    while True:
        fresh = {tuple(op(*(t[i] for t in combo)) for i in range(m))
                 for op in ops for combo in product(closed, repeat=op.arity)}
        if fresh <= closed:
            return closed
        closed |= fresh


@settings(max_examples=40, deadline=None)
@given(_zero_absorbing_generators())
def test_zero_absorbing_fragment_agrees_with_naive_fixpoint(case):
    gens, n = case
    k = gens.domain.k
    projections = [tuple(args[i] for args in product(range(k), repeat=n)) for i in range(n)]
    expected = _naive_closure(projections, list(gens.members()))
    assert {op.table for op in clone_fragment(gens, n).members(n)} == expected


@st.composite
def _closure_cases(draw):
    k = draw(st.sampled_from([2, 3]))
    d = Domain(k)
    ops = []
    for _ in range(draw(st.integers(1, 2))):
        arity = draw(st.integers(1, 2))
        ops.append(Operation(d, arity, tuple(draw(st.lists(
            st.integers(0, k - 1), min_size=k ** arity, max_size=k ** arity)))))
    m = draw(st.integers(1, 3))
    seed = draw(st.sets(st.tuples(*[st.integers(0, k - 1)] * m), min_size=1, max_size=3))
    return seed, OperationSet.from_operations(d, ops)


@settings(max_examples=60, deadline=None)
@given(_closure_cases())
def test_closure_agrees_with_naive_fixpoint(case):
    seed, ops = case
    closure = subuniverse_closure(seed, ops)
    assert set(closure.tuples) == _naive_closure(seed, list(ops.members()))


@st.composite
def _image_cases(draw):
    """Generators of arity 1..3, each sparse (a default and a few other
    points), dense or constant, and a seed of rows over m cells, m within
    one 64-bit word or over several; which arities take support images."""
    k = draw(st.sampled_from([2, 3, 4]))
    d = Domain(k)
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        arity = draw(st.integers(1, 3))
        points = list(product(range(k), repeat=arity))
        kind = draw(st.sampled_from(["sparse", "dense", "constant"]))
        default = draw(st.integers(0, k - 1))
        values = {}
        if kind == "sparse":
            values = draw(st.dictionaries(st.sampled_from(points), st.integers(0, k - 1),
                                          max_size=3))
        elif kind == "dense":
            values = dict(zip(points, draw(st.lists(st.integers(0, k - 1), min_size=len(points),
                                                    max_size=len(points)))))
        gens.append(Operation(d, arity, tuple(values.get(p, default) for p in points)))
    m = draw(st.sampled_from([1, 2, 5, 63, 64, 65, 130]))
    seed = draw(st.sets(st.tuples(*[st.integers(0, k - 1)] * m), min_size=1, max_size=2))
    support_arities = draw(st.sets(st.integers(1, 3)))
    return OperationSet.from_operations(d, gens), seed, support_arities


@settings(max_examples=80, deadline=None)
@given(_image_cases())
def test_support_images_equal_gathered_images(case):
    ops, seed, support_arities = case
    rows = np.array(sorted(seed), dtype=np.uint8)
    runs = []
    for chosen in [lambda support, m: False,
                   lambda support, m: support.arity in support_arities]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clonegen._Support, "cheaper", chosen)
            # the rows new in each of the first two rounds
            runs.append([{r.tobytes() for r in new[start:]}
                         for new, start in islice(clonegen._closure_rounds(rows, ops), 2)])
    assert runs[0] == runs[1]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_support_images_at_k300_equal_gathered_images(data):
    # OperationSet holds uint8 tables only, so the helpers run here on
    # big-endian uint16 tables directly: values of 256 and more, integer
    # keys up to m = 7 cells and byte keys past that
    k = 300
    dtype = _row_dtype(k)
    pool = [0, 1, 255, 256, 299]
    arity = data.draw(st.integers(1, 2))
    tables = []
    for _ in range(data.draw(st.integers(1, 3))):
        table = np.full(k ** arity, data.draw(st.sampled_from(pool)), dtype=dtype)
        points = data.draw(st.dictionaries(st.tuples(*[st.sampled_from(pool)] * arity),
                                           st.sampled_from(pool), max_size=3))
        for point, value in points.items():
            table[np.ravel_multi_index(point, (k,) * arity)] = value
        tables.append(table)
    tables = np.array(tables, dtype=dtype)
    m = data.draw(st.sampled_from([1, 7, 8, 65]))
    rows = np.array(data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=m, max_size=m),
                                       min_size=1, max_size=3)), dtype=dtype)
    support = clonegen._Support(tables, k, arity)
    for table, default in zip(tables, support.defaults):
        values, counts = np.unique(table, return_counts=True)
        assert default == values[counts.argmax()]
    assert support.size == sum(np.count_nonzero(t != d) for t, d in zip(tables, support.defaults))
    support.locate()
    ranges = [range(len(rows))] * arity
    work = clonegen._Work()
    gathered = np.concatenate(list(clonegen._gathered_images(tables, rows, ranges, k, work)))
    assert work.entries == len(tables) * len(rows) ** arity * m
    bits = clonegen._cell_bits(rows, k)
    cols = [bits[:, support.points[:, j]] for j in range(arity)]
    supported = np.concatenate([clonegen._support_images(support, masks, k, m)
                                for masks in clonegen._lit_masks(cols, work)])
    assert gathered.dtype == supported.dtype
    assert np.array_equal(_sorted_distinct(gathered), _sorted_distinct(supported))


@pytest.mark.parametrize("k", [2, 3, 256])
def test_cell_bits_match_one_comparison_of_all_values(k):
    rng = np.random.default_rng(k)
    rows = rng.integers(0, k, size=(5, 130), dtype=np.uint8)
    rows[0] = np.arange(130) % k
    expected = np.packbits(rows[:, None, :] == np.arange(k, dtype=np.uint8)[:, None],
                           axis=2, bitorder="little")
    packed = clonegen._cell_bits(rows, k).view(np.uint8)
    assert packed.shape == (5, k, 24)       # 130 cells in three 64-bit words
    assert np.array_equal(packed[:, :, :17], expected)
    assert not packed[:, :, 17:].any()


def test_cell_bits_of_wide_rows_at_k256_stay_small():
    # 4 seed rows of 40,000 cells under a unary operation with one point off
    # its default: 9 rows, whose bitsets take 9 x 256 x 625 words (11.5 MB);
    # comparing every row entry with all 256 values at once took 41 MB more
    d256 = Domain(256)
    ops = OperationSet.from_operations(d256, [sparse_op(d256, 1, {(7,): 3})])
    seed = np.random.default_rng(0).integers(0, 256, size=(4, 40_000), dtype=np.uint8)
    tracemalloc.start()
    try:
        closure = subuniverse_closure(seed, ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(closure) == 9
    assert peak < 16_000_000
