"""Finite domains, finitary operations and finitary relations.

Operations are stored as flat value tables over the domain {0..k-1}.
The table index of an argument tuple (x1..xn) is sum(x_i * k^(n-i)),
i.e. lexicographic with the first argument most significant.  All file
formats and enumeration orders in this package use that convention.

Rows (a relation's tuples, an operation set's tables, a formula's partial
assignments) are held as 2-d numpy arrays, distinct and sorted by
`_unique_rows` as byte strings (`_row_keys`).  Entries have the type
`_row_dtype(k)`: uint8 for k <= 256, else the narrowest big-endian unsigned
integer, so byte order is lexicographic value order for every k.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

TABLE_ENTRY_CAP = 10_000_000
_INTEGER_TYPES = (int, np.integer, np.bool_)    # the entry types rows accept
_BLOCK_ENTRIES = 1 << 18    # values gathered per vectorised block


class CapExceeded(RuntimeError):
    """A configurable resource cap (candidate budget, fragment size, ...) was hit."""


def check_table_entries(entries: int, what: str) -> None:
    """Raise CapExceeded when an array of that many entries would exceed TABLE_ENTRY_CAP."""
    if entries > TABLE_ENTRY_CAP:
        raise CapExceeded(f"{what} has {entries} entries, over the cap of {TABLE_ENTRY_CAP}")


def _row_dtype(k: int) -> np.dtype:
    """The entry type of rows over range(k): uint8 for k <= 256, else big-endian."""
    return np.dtype(np.min_scalar_type(k - 1)).newbyteorder(">")


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-d array as one byte string (a 1-d void array)."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.shape[1] * rows.itemsize}").ravel()


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-d array of a row dtype, in lexicographic order.

    np.unique(axis=0) gives the same result but builds one structured field
    per column, which is slow for wide rows.
    """
    return np.unique(_row_keys(rows)).view(rows.dtype).reshape(-1, rows.shape[1])


def _strictly_increasing(rows: np.ndarray) -> bool:
    """Whether each row of a 2-d array is lexicographically below the next.

    Adjacent rows are compared in blocks, column by column from the first;
    a pair decided by one column is settled, so most unsorted input fails
    on the first block's first columns.
    """
    step = max(_BLOCK_ENTRIES // max(rows.shape[1], 1), 1)
    for start in range(0, len(rows) - 1, step):
        block = rows[start:start + step + 1]
        tied = np.ones(len(block) - 1, dtype=bool)
        for col in block.T:
            before, after = col[:-1], col[1:]
            if (tied & (before > after)).any():
                return False
            tied &= before == after
            if not tied.any():
                break
        if tied.any():
            return False
    return True


def _digit_matrix(width: int, k: int, dtype=np.int64) -> np.ndarray:
    """Rows 0..k^width-1 written as width base-k digits, most significant first.

    Column pos repeats each digit k^(width-1-pos) times, k^pos times over:
    range(k) broadcast into that shape of a view of the output.
    """
    out = np.empty((k ** width, width), dtype=dtype)
    for pos in range(width):
        out.reshape(k ** pos, k, k ** (width - 1 - pos), width)[..., pos] = np.arange(k)[:, None]
    return out


def _table_rows(data, k: int, width: int) -> np.ndarray:
    """The distinct rows of data, sorted, as a 2-d array of _row_dtype(k).

    data is a 2-d array or an iterable of rows; rows that are already
    strictly increasing are not sorted again.  Raises ValueError for a row
    that is not width entries long, an entry that is not an integer (bools
    and numpy integers are) or one outside 0..k-1.
    """
    data = data if isinstance(data, np.ndarray) else list(data)
    try:
        arr = np.asarray(data)
    except ValueError:
        raise ValueError(f"rows differ in length, expected {width} entries each") from None
    if arr.shape == (0,):
        arr = arr.reshape(0, width)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"rows must have {width} entries each, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "biu":
        # numpy turns uint64 next to signed integers into floats: judge each entry
        arr = np.array(data, dtype=object)
        if not all(isinstance(v, _INTEGER_TYPES) for v in arr.flat):
            raise ValueError("entries must be integers (bools and numpy integers are)")
    if arr.size and not 0 <= arr.min() <= arr.max() < k:
        raise ValueError(f"entries must lie in 0..{k - 1}, got {arr.min()}..{arr.max()}")
    arr = arr.astype(_row_dtype(k), copy=False)
    return arr if _strictly_increasing(arr) else _unique_rows(arr)


@dataclass(frozen=True)
class Domain:
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"domain size must be at least 2, got {self.k}")

    @property
    def elements(self) -> range:
        return range(self.k)


def args_to_index(args: Sequence[int], k: int) -> int:
    idx = 0
    for x in args:
        idx = idx * k + x
    return idx


def index_to_args(idx: int, k: int, arity: int) -> tuple[int, ...]:
    out = [0] * arity
    for pos in range(arity - 1, -1, -1):
        idx, out[pos] = divmod(idx, k)
    return tuple(out)


@dataclass(frozen=True)
class Operation:
    domain: Domain
    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"arity must be positive, got {self.arity}")
        k = self.domain.k
        expected = k ** self.arity
        table = tuple(self.table)
        if len(table) != expected:
            raise ValueError(f"table has {len(table)} entries, expected k^n = {expected}")
        all_int = True
        for i, v in enumerate(table):
            if type(v) is not int:
                if not isinstance(v, _INTEGER_TYPES):
                    raise ValueError(f"table entry {v!r} at index {i} is not an integer "
                                     "(bools and numpy integers are)")
                all_int = False
            if not 0 <= v < k:
                raise ValueError(f"table entry {v} at index {i} out of range 0..{k - 1}")
        object.__setattr__(self, "table", table if all_int else tuple(map(int, table)))

    def __call__(self, *args: int) -> int:
        return evaluate(self, args)

    def __repr__(self):
        t = list(self.table) if len(self.table) <= 32 else f"<{len(self.table)} entries>"
        return f"Operation(k={self.domain.k}, arity={self.arity}, table={t})"


class Relation:
    """A finitary relation: rows holds its tuples, distinct and sorted, as a
    read-only 2-d array of _row_dtype(k); tuples gives them as int tuples."""

    def __init__(self, domain: Domain, arity: int, tuples):
        if arity < 1:
            raise ValueError(f"arity must be positive, got {arity}")
        self.domain = domain
        self.arity = arity
        self.rows = _table_rows(tuples, domain.k, arity)
        self.rows.flags.writeable = False

    @cached_property
    def tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.rows.tolist()))

    @cached_property
    def _set(self) -> frozenset:
        return frozenset(self.tuples)

    def __contains__(self, t) -> bool:
        return tuple(t) in self._set

    def __len__(self):
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return (self.domain == other.domain and self.arity == other.arity
                and np.array_equal(self.rows, other.rows))

    def __hash__(self):
        return hash((self.domain, self.arity, self.rows.tobytes()))

    def __repr__(self):
        ts = list(self.tuples) if len(self) <= 16 else f"<{len(self)} tuples>"
        return f"Relation(k={self.domain.k}, arity={self.arity}, tuples={ts})"


def relation(domain: Domain, arity: int, tuples: Iterable[Sequence[int]]) -> Relation:
    return Relation(domain, arity, tuple(tuple(t) for t in tuples))


def full_relation(domain: Domain, arity: int) -> Relation:
    return Relation(domain, arity, _digit_matrix(arity, domain.k))


def equality_relation(domain: Domain) -> Relation:
    return Relation(domain, 2, tuple((a, a) for a in domain.elements))


def make_projection(domain: Domain, arity: int, index: int) -> Operation:
    """The index-th projection of the given arity; index is 1-based."""
    if not 1 <= index <= arity:
        raise ValueError(f"projection index {index} out of range 1..{arity}")
    check_table_entries(domain.k ** arity,
                        f"table of the {arity}-ary projection over k={domain.k}")
    table = [args[index - 1] for args in product(domain.elements, repeat=arity)]
    return Operation(domain, arity, tuple(table))


def make_constant(domain: Domain, arity: int, value: int) -> Operation:
    if not 0 <= value < domain.k:
        raise ValueError(f"constant value {value} out of range 0..{domain.k - 1}")
    check_table_entries(domain.k ** arity,
                        f"table of the {arity}-ary constant over k={domain.k}")
    return Operation(domain, arity, (value,) * domain.k ** arity)


def sparse_op(domain: Domain, arity: int, values: Mapping[Sequence[int], int]) -> Operation:
    """Operation that is zero everywhere except at the explicitly listed points.

    Raises CapExceeded, before the table is built, when it would have more
    than TABLE_ENTRY_CAP entries.
    """
    k = domain.k
    check_table_entries(k ** arity, f"table of the {arity}-ary operation over k={k}")
    table = [0] * k ** arity
    for point, value in values.items():
        if len(point) != arity:
            raise ValueError(f"point {tuple(point)} has length {len(point)}, expected {arity}")
        table[args_to_index(point, k)] = value
    return Operation(domain, arity, tuple(table))


def is_projection(op: Operation) -> int | None:
    """Return the 1-based projected coordinate, or None if op is not a projection."""
    for i in range(op.arity):
        if all(args[i] == v
               for args, v in zip(product(op.domain.elements, repeat=op.arity), op.table)):
            return i + 1
    return None


def evaluate(op: Operation, args: Sequence[int]) -> int:
    if len(args) != op.arity:
        raise ValueError(f"expected {op.arity} arguments, got {len(args)}")
    k = op.domain.k
    for v in args:
        if not 0 <= v < k:
            raise ValueError(f"argument {v} out of range 0..{k - 1}")
    return op.table[args_to_index(args, k)]


def compose(outer: Operation, inners: Sequence[Operation]) -> Operation:
    """Pointwise composition outer(inner_1(x), ..., inner_n(x))."""
    if len(inners) != outer.arity:
        raise ValueError(f"outer arity {outer.arity} needs {outer.arity} inner operations, "
                         f"got {len(inners)}")
    if not inners:
        raise ValueError("composition needs at least one inner operation")
    m = inners[0].arity
    for g in inners:
        if g.domain != outer.domain:
            raise ValueError("inner operation domain differs from outer domain")
        if g.arity != m:
            raise ValueError("inner operations must all have the same arity")
    k = outer.domain.k
    tables = [g.table for g in inners]
    outer_table = outer.table
    result = [0] * k ** m
    for idx in range(k ** m):
        inner_idx = 0
        for t in tables:
            inner_idx = inner_idx * k + t[idx]
        result[idx] = outer_table[inner_idx]
    return Operation(outer.domain, m, tuple(result))


def minor(op: Operation, var_map: Sequence[int], target_arity: int | None = None) -> Operation:
    """Identification minor: result(y1..ym) = op(y_{var_map[0]}, ..., y_{var_map[n-1]}).

    var_map is 1-based with values in 1..m.
    """
    if len(var_map) != op.arity:
        raise ValueError(f"var_map has {len(var_map)} entries, expected {op.arity}")
    m = max(var_map) if target_arity is None else target_arity
    for v in var_map:
        if not 1 <= v <= m:
            raise ValueError(f"var_map value {v} out of range 1..{m}")
    k = op.domain.k
    table = []
    for args in product(op.domain.elements, repeat=m):
        table.append(op.table[args_to_index([args[v - 1] for v in var_map], k)])
    return Operation(op.domain, m, tuple(table))


def graph_of(op: Operation) -> Relation:
    """The (n+1)-ary relation {(x, op(x))}."""
    k, n = op.domain.k, op.arity
    dtype = _row_dtype(k)
    rows = np.column_stack([_digit_matrix(n, k, dtype), np.array(op.table, dtype)])
    return Relation(op.domain, n + 1, rows)


def image_of(op: Operation) -> Relation:
    return Relation(op.domain, 1, tuple((v,) for v in set(op.table)))


def fix_of(op: Operation) -> Relation:
    k = op.domain.k
    fixed = [(z,) for z in op.domain.elements
             if op.table[args_to_index((z,) * op.arity, k)] == z]
    return Relation(op.domain, 1, tuple(fixed))


class KernelView:
    """Membership-only view of ker(op) when materialising it would exceed the cap.

    Supports `pair in view` where pair is a 2n-tuple; the two halves are
    argument tuples compared through op.
    """

    def __init__(self, op: Operation):
        self.op = op
        self.domain = op.domain
        self.arity = 2 * op.arity

    def __contains__(self, pair) -> bool:
        pair = tuple(pair)
        if len(pair) != self.arity:
            return False
        n = self.op.arity
        return evaluate(self.op, pair[:n]) == evaluate(self.op, pair[n:])


def kernel_of(op: Operation, entry_cap: int = 10_000_000) -> Relation | KernelView:
    """ker(op) as a 2n-ary relation of pairs of argument tuples with equal value.

    Materialised only when the total entry count (tuples times 2n) fits the
    cap; otherwise a KernelView handle supporting membership tests is returned.
    """
    n = op.arity
    classes: dict[int, list[int]] = {}
    for idx, v in enumerate(op.table):
        classes.setdefault(v, []).append(idx)
    pair_count = sum(len(c) ** 2 for c in classes.values())
    if pair_count * 2 * n > entry_cap:
        return KernelView(op)
    k = op.domain.k
    rows = []
    for members in classes.values():
        arg_tuples = [index_to_args(i, k, n) for i in members]
        for a in arg_tuples:
            for b in arg_tuples:
                rows.append(a + b)
    return Relation(op.domain, 2 * n, tuple(rows))
