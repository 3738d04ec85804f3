"""Clone fragments (n-ary parts of generated clones) and subuniverse closure.

Both rest on one semi-naive closure loop, `_close`: the least set of rows
that contains a seed and is closed under componentwise application of a list
of operations.  subuniverse_closure runs it on tuples in A^m.  clone_fragment
runs it on value tables in A^(k^n), seeded with the n projections: the
n-ary part of the clone generated by F is the subuniverse of A^(k^n) that
the projections generate under F.  Each round applies every operation only
to the argument combinations that involve a row found in the round before,
as numpy gathers over blocks of combinations.  A round is sized before it
starts, and one that would gather more than CLOSURE_WORK_CAP table entries
raises CapExceeded.

For zero-absorbing {0,1}-valued generators (any argument 0 forces value 0)
clone_fragment has a fast path: besides the variable identifications of the
generators only the constant zero can appear, because a composition
involving a non-projection member vanishes outside the single point where
that member is nonzero.  The fast path therefore applies when the
identifications are all projections or include the constant zero.  It
works on the generators' uint8 tables, asserts the shape of its
intermediate results and falls back to the closure loop if anything
unexpected appears.
"""
from __future__ import annotations

from math import prod

import numpy as np

from .core import (_BLOCK_ENTRIES, CapExceeded, Operation, Relation,
                   _digit_matrix, _unique_rows, check_table_entries)
from .commutation import OperationSet

FRAGMENT_CAP = 1_000_000
IDENTIFICATION_MAP_CAP = 10_000_000
CLOSURE_WORK_CAP = 10 ** 9      # table entries gathered in one closure round


def _fresh_combos(known: int, start: int, arity: int, block: int):
    """Blocks of index tuples in range(known)^arity with some entry >= start.

    Tuples are grouped by the position p of their first entry >= start, so
    each one is produced exactly once.
    """
    for p in range(arity):
        radices = [start] * p + [known - start] + [known] * (arity - p - 1)
        total = prod(radices)
        for lo in range(0, total, block):
            flat = np.arange(lo, min(lo + block, total), dtype=np.int64)
            combos = np.stack(np.unravel_index(flat, radices), axis=1)
            combos[:, p] += start
            yield combos


def _close(seed: np.ndarray, ops: OperationSet, cap: int | None = None) -> np.ndarray:
    """Rows of the least superset of seed closed under componentwise ops.

    seed is a (rows, m) uint8 array.  Raises CapExceeded once more than cap
    rows are known, or before a round that would gather more than
    CLOSURE_WORK_CAP entries.
    """
    k = ops.domain.k
    rows = _unique_rows(seed)
    m = rows.shape[1]
    seen = {row.tobytes() for row in rows}
    start = 0
    while start < len(rows):
        known = len(rows)
        work = sum((known ** a - start ** a) * len(ops.tables(a)) * m
                   for a in ops.arities())
        if work > CLOSURE_WORK_CAP:
            raise CapExceeded(f"a closure round would gather {work} entries, "
                              f"over the work cap of {CLOSURE_WORK_CAP}")
        fresh: list[bytes] = []
        for arity in ops.arities():
            tables = ops.tables(arity)
            block = max(1, _BLOCK_ENTRIES // (m * max(len(tables), 1)))
            for combos in _fresh_combos(known, start, arity, block):
                idx = rows[combos[:, 0]].astype(np.int64)
                for j in range(1, arity):
                    idx *= k
                    idx += rows[combos[:, j]]
                for row in _unique_rows(tables[:, idx].reshape(-1, m)):
                    key = row.tobytes()
                    if key not in seen:
                        seen.add(key)
                        fresh.append(key)
                if cap is not None and len(seen) > cap:
                    raise CapExceeded(f"fragment size {len(seen)} exceeds the cap of {cap}")
        start = known
        if fresh:
            new_rows = np.frombuffer(b"".join(fresh), dtype=np.uint8).reshape(-1, m)
            rows = np.vstack([rows, new_rows])
    return rows


def _projection_rows(k: int, arity: int) -> np.ndarray:
    """The value tables of the arity-ary projections, one per row."""
    check_table_entries(k ** arity * arity, f"the table of the {arity}-ary projections over k={k}")
    return _digit_matrix(k ** arity, arity, k, np.uint8).T


def _spike_applicable(generators: OperationSet) -> bool:
    """Whether every generator is {0,1}-valued and zero-absorbing.

    A table is zero-absorbing iff all its ones lie in the block of argument
    tuples with no zero entry.
    """
    k = generators.domain.k
    for arity in generators.arities():
        tables = generators.tables(arity)
        if tables.max(initial=0) > 1:
            return False
        shaped = tables.reshape((len(tables),) + (k,) * arity)
        nonzero_args = shaped[(slice(None),) + (slice(1, None),) * arity]
        if np.count_nonzero(nonzero_args) != np.count_nonzero(tables):
            return False
    return True


def _identification_tables(table: np.ndarray, k: int, a: int,
                           arity: int) -> np.ndarray | None:
    """Tables of an a-ary generator composed with projections in every way;
    one row per map.  table is the generator's uint8 value table.

    Returns None if some table is neither constant zero nor a single point
    mapped to 1 (the fast-path shape assumption fails).
    """
    check_table_entries(arity ** a * (a + k ** arity),
                        f"the table of the {arity ** a} identifications of a {a}-ary "
                        f"generator into arity {arity}")
    args = _digit_matrix(k ** arity, arity, k)            # (k^n, n)
    pow_k = k ** np.arange(a - 1, -1, -1, dtype=np.int64)
    maps = _digit_matrix(arity ** a, a, arity)            # variable per argument slot
    out = np.empty((len(maps), k ** arity), dtype=np.uint8)
    for row, m in enumerate(maps):
        idx = args[:, m] @ pow_k
        out[row] = table[idx]
    sums = out.sum(axis=1, dtype=np.int64)
    maxes = out.max(axis=1)
    if np.any((sums > 1) | (maxes > 1)):
        return None
    return _unique_rows(out)


def _spike_fragment(generators: OperationSet, arity: int, cap: int) -> OperationSet | None:
    domain = generators.domain
    rows = [_projection_rows(domain.k, arity)]
    for a in generators.arities():
        for table in generators.tables(a):
            if arity ** a > IDENTIFICATION_MAP_CAP:
                raise CapExceeded(
                    f"{arity ** a} identification maps exceed the work cap")
            tables = _identification_tables(table, domain.k, a, arity)
            if tables is None:
                return None
            rows.append(tables)
    merged = _unique_rows(np.vstack(rows))
    if len(merged) > arity and merged.any(axis=1).all():
        return None     # composition may still reach the constant zero
    if len(merged) > cap:
        raise CapExceeded(f"fragment size {len(merged)} exceeds the cap of {cap}")
    return OperationSet(domain, {arity: merged})


def clone_fragment(generators: OperationSet, arity: int,
                   cap: int = FRAGMENT_CAP) -> OperationSet:
    """The arity-ary part of the clone generated by the given operations."""
    if arity < 1:
        raise ValueError("fragment arity must be positive")
    if _spike_applicable(generators):
        result = _spike_fragment(generators, arity, cap)
        if result is not None:
            return result
    rows = _close(_projection_rows(generators.domain.k, arity), generators, cap)
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
    return Relation(ops.domain, start.arity, _close(start.rows, ops))
