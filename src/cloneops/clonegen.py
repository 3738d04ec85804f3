"""Clone fragments (n-ary parts of generated clones) and subuniverse closure.

Both rest on one semi-naive closure loop, `_closure_rounds`, which builds
the least set of rows that contains a seed and is closed under
componentwise application of a list of operations, one round at a time.
subuniverse_closure runs it on tuples in A^m.  clone_fragment runs it on
value tables in A^(k^n), seeded with the n projections: the n-ary part of
the clone generated by F is the subuniverse of A^(k^n) that the
projections generate under F.  Each round applies every operation only to
the argument combinations that involve a row found in the round before; the
rows a block of combinations gives are told from the known ones by their
keys (`core._row_keys`), kept sorted.  The operations of one arity are
applied in one of two ways, chosen once by the bytes each reads per
combination.  The flat gather reads each table at the indices that the
rows' cells spell, m entries per table.  Support images read a table as a
default value d, its most common entry, and its support S, the points where
it is not d.  The image of a combination is then d except at the cells
where its rows spell a point p of S, and those cells are the AND over the
arguments j of a bitset of the cells where row j holds p_j: ceil(m / 64)
uint64 words per point.  So operations that are d almost everywhere, like
T, are applied in a few words per combination.  The combinations are
joined one argument at a time, and a prefix whose AND is already empty at
every point is dropped with all its extensions, which all map to the
defaults.  Each round charges one counter before it builds anything: the
entries of each gather and the words of each AND block and of the points'
bitsets.  It raises CapExceeded once the round would build more than
CLOSURE_WORK_CAP of them, and so does a closure whose known rows would
hold more than core.TABLE_ENTRY_CAP entries, checked before they grow, or
that knows more than cap rows.  These checks bound every path.
"""
from __future__ import annotations

from math import prod

import numpy as np

from .core import (_BLOCK_ENTRIES, CapExceeded, Operation, OperationSet, Relation,
                   _digit_matrix, _isin_sorted, _key_rows, _row_dtype, _row_keys,
                   _sorted_distinct, check_table_entries)

FRAGMENT_CAP = 1_000_000
CLOSURE_WORK_CAP = 10 ** 9      # entries gathered and AND words built in one closure round


class _Work:
    """The entries one closure round has built, charged before each block."""

    def __init__(self):
        self.entries = 0

    def charge(self, entries: int) -> None:
        """Count a block about to be built; raise CapExceeded once the
        round's entries would exceed CLOSURE_WORK_CAP."""
        self.entries += entries
        if self.entries > CLOSURE_WORK_CAP:
            raise CapExceeded(f"a closure round would build {self.entries} entries, "
                              f"over the work cap of {CLOSURE_WORK_CAP}")


def _fresh_combos(known: int, start: int, arity: int):
    """The index tuples in range(known)^arity with some entry >= start, as
    one list of arity ranges per group, the group's tuples being their product.

    Tuples are grouped by the position p of their first entry >= start, so
    each one is in exactly one group; empty groups are left out.
    """
    for p in range(arity):
        if p and not start:
            return
        yield [range(start)] * p + [range(start, known)] + [range(known)] * (arity - p - 1)


def _gathered_images(tables: np.ndarray, rows: np.ndarray, ranges: list, k: int, work: _Work):
    """Yield, a block at a time, the keys of the images of the rows' index
    tuples in the product of ranges under every table: the tables' entries
    at the flat indices that the rows' columns spell.  All of them are
    charged to work before the first block is gathered."""
    m = rows.shape[1]
    radices = [len(r) for r in ranges]
    offsets = np.array([r.start for r in ranges], dtype=np.int64)
    total = prod(radices)
    work.charge(len(tables) * total * m)
    block = max(1, _BLOCK_ENTRIES // (m * max(len(tables), 1)))
    for lo in range(0, total, block):
        flat = np.arange(lo, min(lo + block, total), dtype=np.int64)
        combos = np.stack(np.unravel_index(flat, radices), axis=1) + offsets
        idx = rows[combos[:, 0]].astype(np.int64)
        for j in range(1, len(ranges)):
            idx *= k
            idx += rows[combos[:, j]]
        yield _row_keys(tables[:, idx].reshape(-1, m), k)


def _value_counts(tables: np.ndarray, k: int) -> np.ndarray:
    """How often each table takes each value: a (tables, k) array, counted
    in one pass over the entries, at most _BLOCK_ENTRIES of them at a time."""
    n = tables.shape[1]
    counts = np.zeros((len(tables), k), dtype=np.min_scalar_type(n))
    step, width = max(_BLOCK_ENTRIES // max(n, 1), 1), min(max(n, 1), _BLOCK_ENTRIES)
    for lo in range(0, len(tables), step):
        for col in range(0, n, width):
            block = tables[lo:lo + step, col:col + width].astype(np.int64)
            block += np.arange(len(block))[:, None] * k     # table t's value v counts at t*k + v
            block = np.bincount(block.ravel(), minlength=len(block) * k)
            counts[lo:lo + step] += block.reshape(-1, k).astype(counts.dtype)
    return counts


class _Support:
    """The tables of one arity as a default value, the most common entry,
    and the support, the points where they differ from it.  The points of
    all tables are held together, table by table: ends[t] is one past
    table t's last point."""

    def __init__(self, tables: np.ndarray, k: int, arity: int):
        counts = _value_counts(tables, k)
        self.defaults = counts.argmax(axis=1).astype(tables.dtype)
        sizes = tables.shape[1] - counts.max(axis=1)
        self.ends = np.cumsum(sizes)
        self.size = int(sizes.sum())
        self.tables, self.arity, self.k = tables, arity, k

    def cheaper(self, m: int) -> bool:
        """Whether a combination's support images, a uint64 bitset of
        ceil(m / 64) words per point and argument, take fewer bytes than
        the m entries gathered per table and argument."""
        return 8 * self.size * -(-m // 64) < len(self.defaults) * m

    def locate(self) -> None:
        """Find the points: points holds a row of arguments per point, and
        values the table's value there."""
        table, flat = np.nonzero(self.tables != self.defaults[:, None])
        self.points = np.stack(np.unravel_index(flat, (self.k,) * self.arity), axis=1)
        self.values = self.tables[table, flat]


def _cell_bits(rows: np.ndarray, k: int) -> np.ndarray:
    """Per row and value, the row's cells that hold the value as a bitset:
    a (rows, k, ceil(m / 64)) uint64 array, cell i in bit i % 64 of word i // 64."""
    words = -(-rows.shape[1] // 64)
    packed = np.zeros((len(rows), k, 8 * words), dtype=np.uint8)
    # one value at a time: a (rows, m) bool temporary, not one of k bytes per entry
    for v in range(k):
        packed[:, v, :-(-rows.shape[1] // 8)] = np.packbits(rows == v, axis=1,
                                                            bitorder="little")
    return packed.view(np.uint64)


def _lit_masks(cols: list[np.ndarray], work: _Work):
    """Yield, a block at a time, AND_j cols[j][i_j] over the index tuples i
    in the product of the cols' rows, leaving out every tuple whose AND is
    empty at every point: cols[j] holds a (points, words) bitset per row.
    The words of each AND block are charged to work.

    A prefix whose AND is already empty at every point is left out with all
    its extensions, and then one all-zero mask is yielded in their place.
    """
    points, words = cols[0].shape[1:]
    empty = False

    def extend(masks, j):
        nonlocal empty
        lit = masks.reshape(len(masks), -1).any(axis=1)
        empty = empty or not lit.all()
        masks = masks[lit]
        if j == len(cols):
            if len(masks):
                yield masks
            return
        step = max(1, _BLOCK_ENTRIES // max(len(cols[j]) * points * words, 1))
        for lo in range(0, len(masks), step):
            part = masks[lo:lo + step, None]
            work.charge(len(part) * len(cols[j]) * points * words)
            block = part & cols[j]
            yield from extend(block.reshape(block.shape[0] * block.shape[1], points, words), j + 1)

    yield from extend(cols[0], 1)
    if empty:
        yield np.zeros((1, points, words), dtype=np.uint64)


def _support_images(support: _Support, masks: np.ndarray, k: int, m: int) -> np.ndarray:
    """The keys of the images that the masks give, one per table and
    distinct mask of its points: the table's default, and at the cells of
    the mask of each of its points, that point's value."""
    keys = []
    begin, words = 0, masks.shape[2]
    for table, end in enumerate(support.ends):
        if begin == end:
            own = np.zeros((1, 0, words), dtype=np.uint64)
        else:
            own = np.ascontiguousarray(masks[:, begin:end]).reshape(len(masks), -1)
            own = _sorted_distinct(own.view(f"V{own.shape[1] * 8}").ravel())
            own = own.view(np.uint64).reshape(-1, end - begin, words)
        cells = np.unpackbits(own.view(np.uint8), axis=2, count=m, bitorder="little")
        image = np.full((len(own), m), support.defaults[table], dtype=_row_dtype(k))
        for p in range(end - begin):
            image[cells[:, p].view(bool)] = support.values[begin + p]
        keys.append(_row_keys(image, k))
        begin = end
    return np.concatenate(keys)


def _closure_rounds(seed: np.ndarray, ops: OperationSet, cap: int | None = None):
    """Run the closure of seed under componentwise ops one round at a time.

    seed is a (rows, m) uint8 array.  Yields (rows, start) after each round:
    the rows known so far, of which rows[start:] are new in that round; the
    last round finds none.  Raises CapExceeded once more than cap rows are
    known, before the known rows would hold more than TABLE_ENTRY_CAP
    entries, and before a round would build more than CLOSURE_WORK_CAP.

    The operations of an arity are applied by support images where
    _Support.cheaper says so, and by the flat gather otherwise.
    """
    k, m = ops.domain.k, seed.shape[1]
    seen = _sorted_distinct(_row_keys(seed, k))     # the known rows' keys
    rows = _key_rows(seen, k, m)
    supports = {}
    for arity in ops.arities():
        support = _Support(ops.tables(arity), k, arity)
        if support.cheaper(m):
            support.locate()
            supports[arity] = support
    # the rows' cell bitsets, one array per round that found rows
    bits = [_cell_bits(rows, k)] if supports else []
    start = 0
    while start < len(rows):
        known, work = len(rows), _Work()
        fresh = []
        for arity in ops.arities():
            support = supports.get(arity)
            if support is not None:
                # one gather of the points' bitsets per argument and round
                work.charge(arity * known * len(support.points) * bits[0].shape[2])
                cols = [np.concatenate([part[:, support.points[:, j]] for part in bits])
                        for j in range(arity)]
            for ranges in _fresh_combos(known, start, arity):
                if support is None:
                    images = _gathered_images(ops.tables(arity), rows, ranges, k, work)
                else:
                    images = (_support_images(support, masks, k, m) for masks in _lit_masks(
                        [c[r.start:r.stop] for c, r in zip(cols, ranges)], work))
                for keys in images:
                    keys = _sorted_distinct(keys)
                    keys = keys[~_isin_sorted(seen, keys)]
                    if len(keys):
                        check_table_entries((len(seen) + len(keys)) * m,
                                            f"a closure of {len(seen) + len(keys)} rows")
                        seen = np.insert(seen, np.searchsorted(seen, keys), keys)
                        fresh.append(_key_rows(keys, k, m))
                    if cap is not None and len(seen) > cap:
                        raise CapExceeded(f"fragment size {len(seen)} exceeds the cap of {cap}")
        start = known
        if fresh:
            rows = np.concatenate([rows, *fresh])
            if supports:
                bits.append(_cell_bits(rows[known:], k))
        yield rows, start


def _projection_rows(k: int, arity: int) -> np.ndarray:
    """The value tables of the arity-ary projections, one per row."""
    check_table_entries(k ** arity * arity, f"the table of the {arity}-ary projections over k={k}")
    return _digit_matrix(arity, k, np.uint8).T


def clone_fragment(generators: OperationSet, arity: int,
                   cap: int = FRAGMENT_CAP) -> OperationSet:
    """The arity-ary part of the clone generated by the given operations.

    Raises ValueError for an arity or a cap below 1, and CapExceeded once
    the fragment would have more than cap members or outgrow the closure's
    other caps (see _closure_rounds).
    """
    if arity < 1:
        raise ValueError("fragment arity must be positive")
    if cap < 1:
        raise ValueError(f"the fragment cap must be at least 1, got {cap}")
    for rows, _ in _closure_rounds(_projection_rows(generators.domain.k, arity), generators, cap):
        pass
    return OperationSet(generators.domain, {arity: rows})


def fragment_contains(fragment: OperationSet, op: Operation) -> bool:
    if op.domain != fragment.domain:
        raise ValueError("operation domain differs from the fragment domain")
    return op in fragment


def subuniverse_closure(seed, ops: OperationSet) -> Relation:
    """Least superset of seed closed under componentwise application of ops."""
    seed = list(seed)
    if not seed:
        raise ValueError("seed must be nonempty")
    start = Relation(ops.domain, len(seed[0]), seed)
    for rows, _ in _closure_rounds(start.rows, ops):
        pass
    return Relation(ops.domain, start.arity, rows)
