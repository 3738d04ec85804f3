"""Clone fragments (n-ary parts of generated clones) and subuniverse closure.

Both rest on one semi-naive closure loop, `_closure_rounds`, which builds
the least set of rows that contains a seed and is closed under
componentwise application of a list of operations, one round at a time.
subuniverse_closure runs it on tuples in A^m.  clone_fragment runs it on
value tables in A^(k^n), seeded with the n projections: the n-ary part of
the clone generated by F is the subuniverse of A^(k^n) that the
projections generate under F.  Each round applies every operation only to
the argument combinations that involve a row found in the round before, as
numpy gathers over blocks of combinations; the rows a block finds are told
from the known ones by their keys (`core._row_keys`), kept sorted.  A round
is sized before it starts, and one that would gather more than
CLOSURE_WORK_CAP table entries raises CapExceeded; so does a closure that
knows more than cap rows.  These two checks bound every path.

For zero-absorbing {0,1}-valued generators (any argument 0 forces value 0)
clone_fragment usually stops after the first round.  That round applies
every generator to every tuple of projections, so it finds the generators'
variable identifications.  If each new one is 0 or a single point mapped to
1, a composition involving it vanishes outside that point: it is that
member again or the constant zero.  The first round is then closed if it
found nothing new or found the zero.  Otherwise the same closure goes on
from the rows it holds.
"""
from __future__ import annotations

from math import prod

import numpy as np

from .core import (_BLOCK_ENTRIES, CapExceeded, Operation, OperationSet, Relation,
                   _digit_matrix, _isin_sorted, _key_rows, _row_keys, _sorted_distinct,
                   check_table_entries)

FRAGMENT_CAP = 1_000_000
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


def _closure_rounds(seed: np.ndarray, ops: OperationSet, cap: int | None = None):
    """Run the closure of seed under componentwise ops one round at a time.

    seed is a (rows, m) uint8 array.  Yields (rows, start) after each round:
    the rows known so far, of which rows[start:] are new in that round; the
    last round finds none.  Raises CapExceeded once more than cap rows are
    known, or before a round that would gather more than CLOSURE_WORK_CAP
    entries.
    """
    k, m = ops.domain.k, seed.shape[1]
    seen = _sorted_distinct(_row_keys(seed, k))     # the known rows' keys
    rows = _key_rows(seen, k, m)
    start = 0
    while start < len(rows):
        known = len(rows)
        work = sum((known ** a - start ** a) * len(ops.tables(a)) * m
                   for a in ops.arities())
        if work > CLOSURE_WORK_CAP:
            raise CapExceeded(f"a closure round would gather {work} entries, "
                              f"over the work cap of {CLOSURE_WORK_CAP}")
        fresh = []
        for arity in ops.arities():
            tables = ops.tables(arity)
            block = max(1, _BLOCK_ENTRIES // (m * max(len(tables), 1)))
            for combos in _fresh_combos(known, start, arity, block):
                idx = rows[combos[:, 0]].astype(np.int64)
                for j in range(1, arity):
                    idx *= k
                    idx += rows[combos[:, j]]
                keys = _sorted_distinct(_row_keys(tables[:, idx].reshape(-1, m), k))
                keys = keys[~_isin_sorted(seen, keys)]
                if len(keys):
                    seen = np.insert(seen, np.searchsorted(seen, keys), keys)
                    fresh.append(_key_rows(keys, k, m))
                if cap is not None and len(seen) > cap:
                    raise CapExceeded(f"fragment size {len(seen)} exceeds the cap of {cap}")
        start = known
        if fresh:
            rows = np.concatenate([rows, *fresh])
        yield rows, start


def _projection_rows(k: int, arity: int) -> np.ndarray:
    """The value tables of the arity-ary projections, one per row."""
    check_table_entries(k ** arity * arity, f"the table of the {arity}-ary projections over k={k}")
    return _digit_matrix(arity, k, np.uint8).T


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


def _spike_closed(fresh: np.ndarray) -> bool:
    """Whether the first round's fresh rows, under zero-absorbing {0,1}-valued
    generators, already close the fragment: each is 0 or a single point
    mapped to 1, and the constant zero is among them unless there are none.
    """
    sums = fresh.sum(axis=1, dtype=np.int64)
    return bool((sums <= 1).all() and (len(sums) == 0 or (sums == 0).any()))


def clone_fragment(generators: OperationSet, arity: int,
                   cap: int = FRAGMENT_CAP) -> OperationSet:
    """The arity-ary part of the clone generated by the given operations."""
    if arity < 1:
        raise ValueError("fragment arity must be positive")
    rounds = _closure_rounds(_projection_rows(generators.domain.k, arity), generators, cap)
    rows, start = next(rounds)
    if not (_spike_applicable(generators) and _spike_closed(rows[start:])):
        for rows, _ in rounds:
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
