import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cloneops.textio as textio
from cloneops import (Domain, FormatError, Operation, OperationSet,
                      emit_operations, emit_relations, full_relation, graph_of,
                      make_projection, parse_operations, parse_relations,
                      parse_tuple_lists, relation, snow_t)
from cloneops.core import _row_dtype, _row_keys
from cloneops.textio import _text_blocks, operation_set_blocks, relation_blocks


def test_operation_round_trip(t3):
    text = emit_operations([("T", t3), ("e1", make_projection(Domain(3), 2, 1))])
    parsed = parse_operations(text)
    assert parsed == [("T", t3), ("e1", make_projection(Domain(3), 2, 1))]


def test_count_comment_is_skipped(t3):
    text = emit_operations([("T", t3)], count_comment=True)
    assert text.startswith("# count 1\n")
    assert parse_operations(text) == [("T", t3)]


def test_relation_round_trip(d3, t3):
    rels = [("g", graph_of(t3)), ("full", full_relation(d3, 2))]
    assert parse_relations(emit_relations(rels)) == rels


def test_tuple_lists_preserve_order(d3):
    text = "rel gamma\ndomain 3\narity 3\ntuples\n2 1 1\n1 2 1\nend\n"
    [(name, dom, rows)] = parse_tuple_lists(text)
    assert name == "gamma" and dom == d3
    assert rows == [(2, 1, 1), (1, 2, 1)]


def test_out_of_range_value_names_line_and_column():
    text = "op bad\ndomain 3\narity 1\ntable 0 3 1\n"
    with pytest.raises(FormatError) as err:
        parse_operations(text)
    assert err.value.line == 4
    assert err.value.col == 9
    assert "out of range" in str(err.value)


def test_relation_out_of_range():
    text = "rel bad\ndomain 2\narity 2\ntuples\n0 2\nend\n"
    with pytest.raises(FormatError) as err:
        parse_relations(text)
    assert err.value.line == 5
    assert err.value.col == 3


def test_truncated_table():
    with pytest.raises(FormatError) as err:
        parse_operations("op t\ndomain 2\narity 1\ntable 0\n")
    assert "end of input" in str(err.value)


def test_missing_keyword():
    with pytest.raises(FormatError) as err:
        parse_operations("op t\nsize 2\n")
    assert "expected 'domain'" in str(err.value)
    assert err.value.line == 2


def test_unterminated_relation():
    with pytest.raises(FormatError) as err:
        parse_relations("rel r\ndomain 2\narity 1\ntuples\n0\n")
    # reported at the last token, as for any other end of input
    assert (err.value.line, err.value.col) == (5, 1)


def test_multi_block_file(d3):
    r1 = relation(d3, 1, [(0,), (2,)])
    r2 = relation(d3, 2, [(1, 1)])
    text = emit_relations([("a", r1), ("b", r2)])
    assert parse_relations(text) == [("a", r1), ("b", r2)]


def test_empty_relation_keeps_declared_arity(d3):
    empty = relation(d3, 4, [])
    [(name, parsed)] = parse_relations(emit_relations([("none", empty)]))
    assert parsed.arity == 4 and parsed.tuples == ()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 300), st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_text_block_matches_join(k, width, n, seed):
    rows = np.random.default_rng(seed).integers(0, k, size=(n, width))
    rows[0, -1] = k - 1
    expected = "".join(" ".join(map(str, row)) + "\n" for row in rows.tolist())
    # int64 rows, and the rows' own type: big-endian past k = 256; in one
    # block, and in blocks of at most 7 entries
    for typed in (rows, rows.astype(_row_dtype(k))):
        assert b"".join(_text_blocks(typed, k)).decode("ascii") == expected
        with mock.patch.object(textio, "EMIT_BLOCK_ENTRIES", 7):
            blocks = list(_text_blocks(typed, k))
        assert len(blocks) == -(-n // max(1, 7 // width))
        assert b"".join(blocks).decode("ascii") == expected


@pytest.mark.parametrize("lo, hi", [(0, 12), (995, 1_005), (9_998, 10_003),
                                    (999_995, 1_000_010)])
def test_index_names_cross_digit_counts(lo, hi):
    # a stand-in set of hi unary tables at k = 2 (keys 0..3), in blocks of
    # 32,768 tables
    keys = (np.arange(hi) % 4).astype(np.uint8)
    ops = SimpleNamespace(domain=Domain(2), row_keys=lambda arity: keys)
    text = bytearray()
    for block in operation_set_blocks(ops, 1):
        text += memoryview(block)
    assert text.startswith(b"# count %d\n" % hi) and text.count(b"\nop g") == hi
    tail = text[text.index(b"op g%d\n" % lo):].decode("ascii")
    assert tail == "".join(f"op g{i}\ndomain 2\narity 1\ntable {i % 4 // 2} {i % 2}\n"
                           for i in range(lo, hi))


def _join_operations(ops, arity):
    """The text of operation_set_blocks by str.join, a member at a time."""
    k = ops.domain.k
    return f"# count {ops.count(arity)}\n" + "".join(
        f"op g{i}\ndomain {k}\narity {arity}\ntable " + " ".join(map(str, row)) + "\n"
        for i, row in enumerate(ops.tables(arity).tolist()))


# the arities per k: tables below, at and past the 2^64 of integer keys
_ARITIES = {2: (1, 7), 3: (1, 4), 4: (1, 3), 7: (1, 2), 10: (1, 2), 11: (1, 2), 256: (1, 1)}


@st.composite
def _operation_sets(draw):
    k = draw(st.sampled_from(sorted(_ARITIES)))
    arity = draw(st.integers(*_ARITIES[k]))
    n = draw(st.sampled_from([1, 2, 5, 9, 10, 11, 101]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = k ** arity
    tables = rng.integers(0, k, size=(n, width))
    if draw(st.booleans()):
        ops = OperationSet(Domain(k), {arity: tables})
    else:
        # built from the tables' keys, shuffled, with some of them repeated
        rows = tables.astype(np.uint8)
        rows = rng.permutation(np.vstack([rows, rows[rng.integers(0, n, size=n // 2 + 1)]]))
        ops = OperationSet._of_keys(Domain(k), arity, _row_keys(rows, k))
    # one block, a row per block, blocks of two rows plus a partial one, and
    # blocks of seven rows, which hold g7-g13 and g98-g104
    block = draw(st.sampled_from([textio.EMIT_BLOCK_ENTRIES, 1, 2 * width + 1, 7 * width]))
    # the default chunks (the tables are narrower than one or not a multiple
    # of one, but at k = 256), one-entry chunks, and one chunk as wide as the
    # table where that has at most 2^16 texts
    texts = draw(st.sampled_from([textio.CHUNK_TEXTS, k,
                                  k ** width if k ** width <= 1 << 16 else k]))
    return ops, arity, block, texts


def _distinct_rows(k, arity, n):
    return OperationSet(Domain(k), {arity: np.array(
        [[i // k ** p % k for p in range(k ** arity)] for i in range(n)])})


@settings(max_examples=100, deadline=None)
@given(_operation_sets())
# g9 -> g10, g99 -> g100 and g999 -> g1000 inside one block and across blocks
@example((_distinct_rows(2, 3, 101), 3, 7 * 8, textio.CHUNK_TEXTS))
@example((_distinct_rows(2, 3, 101), 3, 10 * 8, 2 ** 8))
@example((_distinct_rows(2, 4, 1_003), 4, 7 * 16, textio.CHUNK_TEXTS))
@example((_distinct_rows(2, 4, 1_003), 4, 100 * 16, 2 ** 16))
@example((_distinct_rows(11, 1, 11), 1, 7 * 11, textio.CHUNK_TEXTS))
@example((_distinct_rows(11, 1, 101), 1, 2 * 11 + 1, 11))
def test_operation_set_blocks_match_emit_operations(case):
    ops, arity, block, texts = case
    with (mock.patch.object(textio, "EMIT_BLOCK_ENTRIES", block),
          mock.patch.object(textio, "CHUNK_TEXTS", texts)):
        # each block is a view of one buffer, valid until the next is made
        blocks = [bytes(b) for b in operation_set_blocks(ops, arity)]
        named = [(f"g{i}", op) for i, op in enumerate(ops.members(arity))]
        emitted = emit_operations(named, count_comment=True)
    assert b"".join(blocks).decode("ascii") == emitted == _join_operations(ops, arity)
    rows_per_block = max(1, block // ops.tables(arity).shape[1])
    count = ops.count(arity)
    starts = range(0, count, rows_per_block)
    # a block is yielded in one piece per digit count of its names
    crossings = sum(lo < 10 ** d < min(lo + rows_per_block, count)
                    for lo in starts for d in range(1, len(str(count)) + 1))
    assert len(blocks) == 1 + len(starts) + crossings


def test_key_built_ternary_set_is_written_in_one_small_buffer():
    # 250,000 random ternary tables at k = 3, named g0 ... g249999
    keys = np.random.default_rng(25).integers(0, 3 ** 27, size=250_000, dtype=np.uint64)
    ops = OperationSet._of_keys(Domain(3), 3, keys)
    count = ops.count(3)
    written = 0
    tracemalloc.start()
    try:
        for block in operation_set_blocks(ops, 3):
            written += len(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    line = len("op g\ndomain 3\narity 3\ntable \n") + 2 * 27 - 1
    assert written == len(f"# count {count}\n") + sum(line + len(str(i)) for i in range(count))
    # the text is 21 MB; the records of one block, their buffer and the
    # block's temporaries stay under 1 MiB whatever the member count
    assert peak < 1 << 20


def test_relation_blocks_hold_one_block_at_a_time():
    graph = graph_of(snow_t(4))                 # 262,144 tuples of 10 entries
    written = 0
    tracemalloc.start()
    try:
        for block in relation_blocks([("T", graph)]):
            written += len(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written == len("rel T\ndomain 4\narity 10\ntuples\n") + 262_144 * 20 + 4
    # the text is 5.2 MB; the records of one block of 2^16 entries and the
    # block's temporaries stay under 1 MiB
    assert peak < 1 << 20


def test_operation_blocks_split_tables_and_names_alike(d3):
    rng = np.random.default_rng(9)
    # unary and binary tables, with names of several lengths
    named = [(f"op{'x' * (i % 3)}{i}",
              Operation(d3, 1 + i % 2, rng.integers(0, 3, 3 ** (1 + i % 2))))
             for i in range(40)]
    with mock.patch.object(textio, "EMIT_BLOCK_ENTRIES", 20):
        blocks = list(textio.operation_blocks(named, count_comment=True))
    text = b"".join(blocks).decode("ascii")
    assert len(blocks) > 10
    assert text == emit_operations(named, count_comment=True)
    assert parse_operations(text) == named
    assert emit_operations([]) == emit_relations([]) == "\n"


@pytest.mark.parametrize("k, arity", [(3, 3), (4, 3)])     # integer keys; byte keys
def test_key_built_set_is_counted_tested_and_written_undecoded(k, arity):
    rng = np.random.default_rng(k)
    rows = rng.integers(0, k, size=(40, k ** arity), dtype=np.uint8)
    keys = _row_keys(rng.permutation(np.vstack([rows, rows[:7]])), k)
    ops = OperationSet._of_keys(Domain(k), arity, keys)
    with mock.patch.object(textio, "EMIT_BLOCK_ENTRIES", 3 * k ** arity):
        text = b"".join(map(bytes, operation_set_blocks(ops, arity))).decode("ascii")
    member = Operation(Domain(k), arity, rows[5])
    assert ops.count() == ops.count(arity) == len(ops) == 40
    assert ops.arities() == (arity,) and member in ops
    assert repr(ops) == f"OperationSet(k={k}, {arity}-ary: 40)"
    assert ops._tables == {}
    named = [(f"g{i}", Operation(Domain(k), arity, row))
             for i, row in enumerate(np.unique(rows, axis=0))]
    assert text == emit_operations(named, count_comment=True)


def test_operation_set_blocks_of_empty_slice(d3):
    empty = OperationSet(d3, {})
    assert (b"".join(operation_set_blocks(empty, 2)).decode("ascii")
            == emit_operations([], count_comment=True))


def test_padded_values_hand_cases():
    ops = OperationSet(Domain(11), {1: [[10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]]})
    assert b"".join(operation_set_blocks(ops, 1)) == (
        b"# count 1\nop g0\ndomain 11\narity 1\ntable 10 0 1 2 3 4 5 6 7 8 9\n")
    # the zero padding goes, a name's own bytes stay
    named = [("\u03c6\0", Operation(Domain(11), 1, [10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0]))]
    assert emit_operations(named) == (
        "op \u03c6\0\ndomain 11\narity 1\ntable 10 9 8 7 6 5 4 3 2 1 0\n")
    assert parse_operations(emit_operations(named)) == named
    rel = relation(Domain(256), 3, [(99, 100, 255), (0, 9, 10)])
    assert emit_relations([("R", rel)]) == (
        "rel R\ndomain 256\narity 3\ntuples\n0 9 10\n99 100 255\nend\n")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 10, 11, 255, 256, 257, 300]), st.integers(1, 3), st.data())
def test_relation_text_round_trip(k, arity, data):
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, k - 1)] * arity), max_size=12))
    rel = relation(Domain(k), arity, rows)
    text = emit_relations([("R", rel)])
    assert parse_relations(text) == [("R", rel)]
    lines = text.splitlines()
    emitted = [tuple(map(int, line.split()))
               for line in lines[lines.index("tuples") + 1:lines.index("end")]]
    # lexicographic order of the values, whatever the width of the entries
    assert emitted == sorted(set(rows))
