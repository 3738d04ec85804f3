import pickle
import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cloneops.core as core
from cloneops import (CapExceeded, Domain, KernelView, Operation, OperationSet, Relation,
                      compose, evaluate, fix_of, graph_of, image_of,
                      is_projection, kernel_of, make_constant, make_projection,
                      minor, relation, sparse_op)


def random_op(rng, k, arity):
    return Operation(Domain(k), arity,
                     tuple(rng.randrange(k) for _ in range(k ** arity)))


def test_projection_tables():
    assert make_projection(Domain(3), 2, 1).table == (0, 0, 0, 1, 1, 1, 2, 2, 2)
    assert make_projection(Domain(3), 1, 1).table == (0, 1, 2)
    assert make_projection(Domain(2), 2, 2).table == (0, 1, 0, 1)


def test_projection_index_out_of_range():
    with pytest.raises(ValueError):
        make_projection(Domain(3), 2, 3)
    with pytest.raises(ValueError):
        make_projection(Domain(3), 2, 0)


def test_constants():
    assert make_constant(Domain(3), 2, 0).table == (0,) * 9
    assert make_constant(Domain(3), 1, 0).table == (0, 0, 0)
    assert make_constant(Domain(2), 3, 1).table == (1,) * 8
    with pytest.raises(ValueError):
        make_constant(Domain(3), 1, 3)


def test_sparse_op_size_checked_before_allocating():
    # 10^12 entries: building the list first would end in a MemoryError
    with pytest.raises(CapExceeded, match="over the cap"):
        sparse_op(Domain(10), 12, {})
    assert sparse_op(Domain(10), 2, {(1, 2): 3}).table[12] == 3


def test_projection_and_constant_sizes_checked_before_allocating():
    with pytest.raises(CapExceeded, match="over the cap"):
        make_projection(Domain(10), 12, 1)
    with pytest.raises(CapExceeded, match="over the cap"):
        make_constant(Domain(10), 12, 0)


def test_evaluate_t3(t3):
    assert evaluate(t3, (1, 1, 2, 2)) == 1
    assert evaluate(t3, (1, 2, 1, 2)) == 1
    assert evaluate(t3, (0, 0, 0, 0)) == 0
    assert evaluate(t3, (2, 2, 1, 1)) == 0


def test_evaluate_errors(t3):
    with pytest.raises(ValueError):
        evaluate(t3, (1, 1, 2))
    with pytest.raises(ValueError):
        evaluate(t3, (1, 1, 2, 3))


def test_compose_t3(d3, t3):
    e1 = make_projection(d3, 2, 1)
    e2 = make_projection(d3, 2, 2)
    assert compose(t3, [e1, e1, e1, e1]) == make_constant(d3, 2, 0)
    delta12 = sparse_op(d3, 2, {(1, 2): 1})
    assert compose(t3, [e1, e1, e2, e2]) == delta12
    assert compose(t3, [e1, e2, e1, e2]) == delta12


def test_compose_projection_outer(d3):
    rng = random.Random(1)
    g, h = random_op(rng, 3, 2), random_op(rng, 3, 2)
    assert compose(make_projection(d3, 2, 1), [g, h]) == g
    assert compose(make_projection(d3, 2, 2), [g, h]) == h


def test_compose_arity_mismatch(d3, t3):
    with pytest.raises(ValueError):
        compose(t3, [make_projection(d3, 2, 1)] * 3)
    with pytest.raises(ValueError):
        compose(t3, [make_projection(d3, 2, 1)] * 3 + [make_projection(d3, 1, 1)])


def test_minor_examples(d3, t3):
    e2_3 = make_projection(d3, 3, 2)
    assert minor(e2_3, (1, 1, 2)) == make_projection(d3, 2, 1)
    assert minor(t3, (1, 1, 1, 1)) == make_constant(d3, 1, 0)
    rng = random.Random(2)
    op = random_op(rng, 3, 3)
    assert minor(op, (1, 2, 3)) == op


def test_minor_equals_projection_composition(d3):
    rng = random.Random(3)
    for _ in range(20):
        op = random_op(rng, 3, 3)
        var_map = tuple(rng.randint(1, 2) for _ in range(3))
        projections = [make_projection(d3, 2, v) for v in var_map]
        assert minor(op, var_map, 2) == compose(op, projections)


def test_graph_of(t3, d3):
    g = graph_of(make_constant(Domain(2), 1, 0))
    assert g.tuples == ((0, 0), (1, 0))
    gt = graph_of(t3)
    assert len(gt) == 81
    ones = [t for t in gt.tuples if t[-1] == 1]
    assert ones == [(1, 1, 2, 2, 1), (1, 2, 1, 2, 1)]
    gid = graph_of(make_projection(d3, 1, 1))
    assert gid.tuples == ((0, 0), (1, 1), (2, 2))


def test_graph_size_and_prefix_injectivity():
    rng = random.Random(4)
    for _ in range(10):
        op = random_op(rng, 3, 2)
        g = graph_of(op)
        assert len(g) == 9
        prefixes = {t[:-1] for t in g.tuples}
        assert len(prefixes) == 9


@pytest.mark.parametrize("k, arity", [(2, 1), (2, 4), (3, 3), (4, 2), (5, 2)])
def test_graph_rows_are_built_sorted_and_distinct(k, arity, monkeypatch):
    rng = np.random.default_rng(k * 10 + arity)
    op = Operation(Domain(k), arity, rng.integers(0, k, k ** arity))
    monkeypatch.setattr(core, "_strictly_increasing", lambda rows: pytest.fail(
        "graph_of checked the order of rows it built in order"))
    g = graph_of(op)
    assert g.rows.dtype == op.row.dtype and not g.rows.flags.writeable
    assert np.array_equal(g.rows, np.unique(g.rows, axis=0))
    assert g.arity == arity + 1 and len(g) == k ** arity


def test_graph_rows_are_written_in_place():
    # the digits go straight into the rows: no second k^n x n matrix (4.75
    # MiB traced when the digit matrix was stacked with the values)
    op = Operation(Domain(4), 9, np.zeros(4 ** 9, dtype=np.uint8))
    tracemalloc.start()
    try:
        g = graph_of(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.rows.nbytes == 4 ** 9 * 10
    assert peak < 1.1 * g.rows.nbytes


def test_image_fix_of_t3(t3):
    assert image_of(t3).tuples == ((0,), (1,))
    assert fix_of(t3).tuples == ((0,),)


def test_image_of_composition_shrinks(d3):
    rng = random.Random(5)
    for _ in range(20):
        f = random_op(rng, 3, 2)
        gs = [random_op(rng, 3, 2) for _ in range(2)]
        sub = set(image_of(compose(f, gs)).tuples)
        assert sub <= set(image_of(f).tuples)


def test_kernel_of_t3(t3):
    ker = kernel_of(t3)
    assert isinstance(ker, Relation)
    assert ker.arity == 8
    # one block holding the two preimages of 1, one block with the other 79
    assert len(ker) == 2 * 2 + 79 * 79
    assert (1, 2, 1, 2, 1, 1, 2, 2) in ker
    assert (1, 1, 2, 2, 1, 2, 1, 2) in ker
    assert (0, 0, 0, 0, 1, 1, 2, 2) not in ker


def test_kernel_view_above_cap(t3, monkeypatch):
    monkeypatch.setattr(core, "TABLE_ENTRY_CAP", 10)
    view = kernel_of(t3)
    assert isinstance(view, KernelView)
    assert (1, 2, 1, 2, 1, 1, 2, 2) in view
    assert (0, 0, 0, 0, 1, 1, 2, 2) not in view
    assert (0, 0, 0, 0) not in view  # wrong arity


def test_kernel_is_equivalence():
    rng = random.Random(6)
    for _ in range(5):
        op = random_op(rng, 2, 2)
        ker = kernel_of(op)
        args = list(product(range(2), repeat=2))
        for a in args:
            assert a + a in ker
        pairs = [(a, b) for a in args for b in args if a + b in ker]
        for a, b in pairs:
            assert b + a in ker
            for b2, c in pairs:
                if b2 == b:
                    assert a + c in ker


def test_relation_canonicalisation(d3):
    r = relation(d3, 2, [(2, 1), (0, 0), (2, 1)])
    assert r.tuples == ((0, 0), (2, 1))
    assert (2, 1) in r and (1, 2) not in r


def test_validation_errors(d3):
    with pytest.raises(ValueError):
        Domain(1)
    with pytest.raises(ValueError):
        Operation(d3, 2, (0,) * 8)
    with pytest.raises(ValueError):
        Operation(d3, 2, (0,) * 8 + (3,))
    with pytest.raises(ValueError):
        relation(d3, 2, [(0, 3)])
    with pytest.raises(ValueError):
        relation(d3, 2, [(0,)])


def _reference_rows(k, arity, tuples):
    """The row-by-row validation: ValueError, or the sorted distinct int rows."""
    seen = set()
    for t in tuples:
        if len(t) != arity:
            return ValueError
        for v in t:
            if not 0 <= v < k:
                return ValueError
        seen.add(tuple(int(v) for v in t))
    return tuple(sorted(seen))


def _typed(kind, v):
    """v as a numpy or bool entry where that type can hold it, else as int."""
    if kind is np.int64 or kind is np.uint8 and v >= 0 or kind is bool and v in (0, 1):
        return kind(v)
    return v


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_relation_validation_matches_row_by_row(k, arity, data):
    entry = st.tuples(st.sampled_from([int, np.int64, np.uint8, bool]),
                      st.integers(-1, k))
    rows = data.draw(st.lists(st.lists(entry, min_size=arity - 1, max_size=arity + 1),
                              max_size=12))
    typed = tuple(tuple(_typed(kind, v) for kind, v in row) for row in rows)
    expected = _reference_rows(k, arity, typed)
    if expected is ValueError:
        with pytest.raises(ValueError):
            Relation(Domain(k), arity, typed)
    else:
        rel = Relation(Domain(k), arity, typed)
        assert rel.tuples == expected
        assert all(type(v) is int for t in rel.tuples for v in t)


@pytest.mark.parametrize("rows, ordered", [
    ([[0, 1], [0, 2], [1, 0]], True),
    ([[0, 1], [0, 1], [1, 0]], False),      # a repeated row
    ([[0, 2], [0, 1], [1, 0]], False),      # out of order in the second column
    ([[1, 0], [0, 2], [2, 2]], False),      # out of order in the first column
    ([[2, 2]], True),
    ([], True),
])
def test_strictly_increasing_rows_are_not_sorted_again(d3, rows, ordered, monkeypatch):
    sorts = []
    unique_rows = core._unique_rows
    monkeypatch.setattr(core, "_unique_rows",
                        lambda r, k: sorts.append(r) or unique_rows(r, k))
    rel = Relation(d3, 2, np.array(rows, dtype=np.int64).reshape(-1, 2))
    assert rel.tuples == _reference_rows(3, 2, [tuple(r) for r in rows])
    assert bool(sorts) != ordered
    # ordered rows are checked like any other
    with pytest.raises(ValueError):
        Relation(d3, 2, np.array(rows + [[2, 3]], dtype=np.int64))


def test_relation_entries_become_int_behind_equal_values(d3):
    # np.int64(0) and True compare and hash like 0 and 1, seen first as ints
    r = relation(d3, 2, [(0, 1), (1, np.int64(0)), (True, 2)])
    assert r.tuples == ((0, 1), (1, 0), (1, 2))
    assert all(type(v) is int for t in r.tuples for v in t)


@pytest.mark.parametrize("entry", [0.5, 1.9, np.float64(2.7), 1.0, "1", None])
def test_relation_rejects_non_integer_entries(d3, entry):
    with pytest.raises(ValueError):
        relation(d3, 1, [(0,), (entry,)])
    with pytest.raises(ValueError):
        Relation(d3, 2, np.array([[0.0, 1.5]]))


@pytest.mark.parametrize("entry", [0.5, 2.7, np.float64(2.7), 1.0, "1", None])
def test_operation_rejects_non_integer_entries(d3, entry):
    with pytest.raises(ValueError, match="not an integer"):
        Operation(d3, 1, (0, 1, entry))


def test_operation_table_holds_ints(d3):
    op = Operation(d3, 1, (np.uint8(2), True, np.int64(0)))
    assert op.table == (2, 1, 0)
    assert all(type(v) is int for v in op.table)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("width", [0, 1, 2, 3])
def test_digit_matrix_matches_product(k, width):
    for dtype in (np.int64, np.uint8, core._row_dtype(k)):
        digits = core._digit_matrix(width, k, dtype)
        assert digits.dtype == dtype
        assert digits.tolist() == [list(t) for t in product(range(k), repeat=width)]


def test_relation_accepts_uint64_next_to_signed_entries(d3):
    # numpy alone would promote this row to float64
    assert relation(d3, 2, [(np.uint64(2), 0), (1, np.int64(1))]).tuples == ((1, 1), (2, 0))


def test_is_projection(d3, t3):
    assert is_projection(make_projection(d3, 3, 2)) == 2
    assert is_projection(t3) is None


@st.composite
def _operations(draw):
    """A random operation for k 2..4 and arity 1..3, sometimes a projection."""
    k, n = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    points = list(product(range(k), repeat=n))
    index = draw(st.integers(0, n))
    if index:
        table = [args[index - 1] for args in points]
    else:
        table = draw(st.lists(st.integers(0, k - 1), min_size=k ** n, max_size=k ** n))
    return Operation(Domain(k), n, table)


@settings(max_examples=150, deadline=None)
@given(_operations(), st.data())
def test_row_built_helpers_match_their_scalar_definitions(op, data):
    k, n, d = op.domain.k, op.arity, op.domain
    points = list(product(range(k), repeat=n))
    value = data.draw(st.integers(0, k - 1))
    index = data.draw(st.integers(1, n))
    values = data.draw(st.dictionaries(st.sampled_from(points), st.integers(0, k - 1),
                                       max_size=4))
    assert sparse_op(d, n, values).table == tuple(values.get(p, 0) for p in points)
    assert make_projection(d, n, index).table == tuple(p[index - 1] for p in points)
    assert make_constant(d, n, value).table == tuple(value for _ in points)
    m = data.draw(st.integers(1, 3))
    var_map = data.draw(st.lists(st.integers(1, m), min_size=n, max_size=n))
    assert minor(op, var_map, m).table == tuple(
        op(*[ys[v - 1] for v in var_map]) for ys in product(range(k), repeat=m))
    assert is_projection(op) == next(
        (i + 1 for i in range(n) if all(op(*p) == p[i] for p in points)), None)
    assert image_of(op).tuples == tuple(sorted({(op(*p),) for p in points}))
    assert fix_of(op).tuples == tuple((z,) for z in range(k) if op(*(z,) * n) == z)
    assert kernel_of(op).tuples == tuple(sorted(a + b for a in points for b in points
                                                if op(*a) == op(*b)))
    assert graph_of(op).tuples == tuple(p + (op(*p),) for p in points)


def test_operation_equality_does_not_depend_on_the_table_type(d3):
    table = (0, 1, 2, 2, 1, 0, 0, 0, 1)
    row = OperationSet.from_operations(d3, [Operation(d3, 2, table)]).tables(2)[0]
    ops = [Operation(d3, 2, t) for t in (table, list(table), np.array(table), row)]
    assert row.dtype == np.uint8
    assert all(op == ops[0] and hash(op) == hash(ops[0]) for op in ops)
    assert len(set(ops)) == 1
    assert ops[0] != Operation(d3, 2, (0,) * 9)
    assert Operation(d3, 1, (0, 1, 2)) != Operation(Domain(4), 1, (0, 1, 2, 3))


@pytest.mark.parametrize("k", [3, 300])    # uint8 rows; big-endian uint16 rows
def test_pickled_operation_and_relation_keep_their_hash(k):
    dom = Domain(k)
    op = Operation(dom, 2, np.arange(k ** 2) * 7 % k)
    rel = relation(dom, 3, [(k - 1, 0, 1), (1, k - 2, 0), (0, 0, k - 1)])
    for item, rows in ((op, "row"), (rel, "rows")):
        copy = pickle.loads(pickle.dumps(item))
        assert copy == item and len({item, copy}) == 1
        assert getattr(copy, rows).dtype == core._row_dtype(k)
        assert not getattr(copy, rows).flags.writeable


def test_operation_row_is_read_only(d3, t3):
    for op in (Operation(d3, 1, [2, 1, 0]), t3, make_projection(d3, 2, 1)):
        assert op.row.dtype == np.uint8 and op.row.shape == (3 ** op.arity,)
        with pytest.raises(ValueError):
            op.row[0] = 1


def test_stored_tables_do_not_alias_the_callers_array(d3):
    a = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    rel = Relation(d3, 2, a)
    assert a.flags.writeable and not rel.rows.flags.writeable
    a[0] = [2, 2]
    assert rel.tuples == ((0, 1), (1, 0))

    base = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    rel = Relation(d3, 2, base[:])
    before = hash(rel)
    base[0] = [2, 2]
    assert rel.rows.tolist() == [[0, 1], [1, 0]] and hash(rel) == before

    t = np.array([[0, 0, 1], [0, 1, 0]], dtype=np.uint8)
    ops = OperationSet(d3, {1: t})
    t[0] = [2, 2, 2]
    assert ops.tables(1).tolist() == [[0, 0, 1], [0, 1, 0]]
    assert not ops.tables(1).flags.writeable

    r = np.array([0, 1, 2], dtype=np.uint8)
    op = Operation(d3, 1, r)
    r[0] = 2
    assert op.row.tolist() == [0, 1, 2]


# the widest rows over range(k) that get an integer key: k^width <= 2^64 < k^(width+1)
_KEY_WIDTHS = {2: 64, 3: 40, 4: 32, 16: 16, 255: 8, 256: 8, 257: 7, 300: 7}


def test_key_width():
    for k, width in _KEY_WIDTHS.items():
        assert core._key_width(k) == width
        assert k ** width <= 2 ** 64 < k ** (width + 1)


@st.composite
def _keyed_rows(draw):
    """Rows over range(k) as wide as an integer key allows, or one entry wider.

    The rows are drawn from a few that share a prefix and then take entries
    0 and k-1 more often than others, so rows repeat, and rows that differ
    only in their last entries sit at the carries of base-k numbers.
    """
    k = draw(st.sampled_from(sorted(_KEY_WIDTHS)))
    width = draw(st.sampled_from([1, 2, _KEY_WIDTHS[k], _KEY_WIDTHS[k] + 1]))
    entries = st.sampled_from([0, k - 1]) | st.integers(0, k - 1)
    base = draw(st.lists(entries, min_size=width, max_size=width))
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        cut = draw(st.integers(0, width))
        pool.append(base[:cut] + draw(st.lists(entries, min_size=width - cut,
                                               max_size=width - cut)))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return k, np.array(rows, dtype=core._row_dtype(k))


@settings(max_examples=300, deadline=None)
@given(_keyed_rows())
# uint8 keys, narrower than the 2^16 values of a decoded chunk of 16 digits
@example((2, np.array([[1] * 8, [0] * 8, [1, 0, 1, 1, 0, 0, 1, 1]], dtype=np.uint8)))
# a full chunk of 10 digits under a leading chunk of 1
@example((3, np.array([[2] * 11, [0] * 10 + [2], [1] + [0] * 10], dtype=np.uint8)))
def test_row_keys_order_rows_lexicographically(case):
    k, rows = case
    keys = core._row_keys(rows, k)
    assert (keys.dtype.kind == "u") == (rows.shape[1] <= _KEY_WIDTHS[k])
    tuples = [tuple(row) for row in rows.tolist()]
    assert np.argsort(keys, kind="stable").tolist() == sorted(range(len(rows)),
                                                              key=tuples.__getitem__)
    for i, j in product(range(len(rows)), repeat=2):
        assert (keys[i] == keys[j]) == (tuples[i] == tuples[j])
    assert np.array_equal(core._key_rows(keys, k, rows.shape[1]), rows)
    assert core._last_entries(keys, k).tolist() == rows[:, -1].tolist()
    # the keys do not depend on the rows' memory order, nor on their byte
    # order: a pickled big-endian array may come back in native order
    assert np.array_equal(core._row_keys(np.asfortranarray(rows), k), keys)
    assert np.array_equal(core._row_keys(rows.astype(rows.dtype.newbyteorder("=")), k), keys)
    wider = np.zeros((len(rows), 2 * rows.shape[1]), dtype=rows.dtype)
    wider[:, 1::2] = rows
    assert np.array_equal(core._row_keys(wider[:, 1::2], k), keys)


@settings(max_examples=300, deadline=None)
@given(_keyed_rows())
def test_unique_rows_match_numpy(case):
    k, rows = case
    assert np.array_equal(core._unique_rows(rows, k), np.unique(rows, axis=0))


@pytest.mark.parametrize("k, arity", [(3, 2), (4, 3)])    # integer keys; bytes past 32 entries
def test_operation_set_members_and_membership(k, arity):
    dom = Domain(k)
    rng = np.random.default_rng(k)
    tables = rng.integers(0, k, (20, k ** arity), dtype=np.uint8)
    tables[:10, -1] = k - 1
    ops = OperationSet(dom, {arity: np.vstack([tables, tables[::-2]])})
    assert ops.count(arity) == 20
    members = list(ops.members(arity))
    assert members == [Operation(dom, arity, t) for t in ops.tables(arity)]
    assert all(not op.row.flags.writeable for op in members)
    assert all(op in ops for op in members)
    for op in members:
        row = op.row.copy()
        row[-1] = (row[-1] + 1) % k
        assert (Operation(dom, arity, row) in ops) == any(
            np.array_equal(row, t) for t in ops.tables(arity))
    assert Operation(dom, 1, [0] * k) not in ops


@pytest.mark.parametrize("k, arity", [(2, 2), (3, 3), (4, 3)])
def test_key_built_set_decodes_its_tables_once(k, arity):
    rng = np.random.default_rng(arity)
    rows = rng.integers(0, k, size=(30, k ** arity), dtype=np.uint8)
    keys = core._row_keys(rng.permutation(np.vstack([rows, rows[::3]])), k)
    ops = OperationSet._of_keys(Domain(k), arity, keys)
    tables = ops.tables(arity)
    assert np.array_equal(tables, np.unique(rows, axis=0))
    assert np.array_equal(tables, core._key_rows(ops.row_keys(arity), k, k ** arity))
    assert not tables.flags.writeable and not ops.row_keys(arity).flags.writeable
    assert ops.tables(arity) is tables
    assert ops == OperationSet(Domain(k), {arity: rows})
    assert ops.tables(arity + 1).shape == (0, k ** (arity + 1))
