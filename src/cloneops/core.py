"""Finite domains, finitary operations, relations and operation sets.

An operation is one row, `Operation.row`: its flat value table over the
domain {0..k-1}; `Operation.table` is the scalar view, an int tuple.  The
table index of an argument tuple (x1..xn) is sum(x_i * k^(n-i)), i.e.
lexicographic with the first argument most significant.  All file formats
and enumeration orders in this package use that convention.

Rows (a relation's tuples, an operation set's tables, a formula's partial
assignments) are held as 2-d numpy arrays of `_row_dtype(k)`: uint8 for
k <= 256, else the narrowest big-endian unsigned integer.  Rows are sorted,
deduplicated and looked up by one key each (`_row_keys`): the row read as a
base-k number, most significant entry first, in an unsigned integer of at
most 64 bits when k^width <= 2^64; wider rows are keyed by their bytes,
whose order the big-endian entries make lexicographic value order.  Either
way key order is lexicographic row order and equal keys mean equal rows.
The sorted keys are themselves a stored form: an operation set built from
a search's keys keeps only them, and decodes its tables (`_key_rows`)
when they are asked for.
"""
from __future__ import annotations

from functools import cache, cached_property
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


@cache
def _row_dtype(k: int) -> np.dtype:
    """The entry type of rows over range(k): uint8 for k <= 256, else big-endian."""
    return np.dtype(np.min_scalar_type(k - 1)).newbyteorder(">")


@cache
def _key_width(k: int) -> int:
    """The most entries a row over range(k) may have to be keyed by an
    integer: the largest width with k^width <= 2^64."""
    width = 0
    while k ** (width + 1) <= 1 << 64:
        width += 1
    return width


@cache
def _key_weights(k: int, width: int) -> np.ndarray:
    """k^(width-1), ..., k, 1 in the narrowest unsigned integer that holds
    k^width - 1 and k; width <= _key_width(k)."""
    weights = np.array([k ** p for p in range(width - 1, -1, -1)],
                       dtype=np.min_scalar_type(max(k ** width - 1, k)))
    weights.setflags(write=False)
    return weights


def _row_keys(rows: np.ndarray, k: int) -> np.ndarray:
    """One key per row of a 2-d array of _row_dtype(k), as a 1-d array.

    A row of width <= _key_width(k) entries is keyed by its base-k number,
    in the type of _key_weights (uint64 at most); a wider one by its bytes
    (a void scalar), read as _row_dtype(k) whatever the rows' byte order.
    Key order is lexicographic row order, and equal keys mean equal rows.
    """
    width = rows.shape[1]
    if width > _key_width(k):
        rows = np.ascontiguousarray(rows, dtype=_row_dtype(k))
        return rows.view(f"V{width * rows.itemsize}").ravel()
    keys = np.empty(len(rows), dtype=_key_weights(k, width).dtype)
    # Horner's rule, one multiply-add per column over a block of rows at a
    # time; a column is read with the rows' strides, so any memory order works
    step = max(_BLOCK_ENTRIES // max(width, 1), 1)
    for start in range(0, len(rows), step):
        block, out = rows[start:start + step], keys[start:start + step]
        out.fill(0)
        for column in block.T:
            out *= k
            out += column
    return keys


@cache
def _digit_table(k: int, width: int) -> np.ndarray:
    """_digit_matrix(width, k) in _row_dtype(k), read-only."""
    table = _digit_matrix(width, k, _row_dtype(k))
    table.setflags(write=False)
    return table


def _key_rows(keys: np.ndarray, k: int, width: int) -> np.ndarray:
    """The rows of width entries that _row_keys(rows, k) gives these keys."""
    dtype = _row_dtype(k)
    if keys.dtype.kind == "V":
        return np.ascontiguousarray(keys).view(dtype).reshape(len(keys), width)
    # the digits are read a chunk at a time, from a table of the k^chunk <= 2^16
    # chunk values; only a chunk below the leading one divides, by a k^chunk
    # below k^width, which the keys' type holds
    chunk = 1
    while chunk < width and k ** (chunk + 1) <= 1 << 16:
        chunk += 1
    table = _digit_table(k, chunk)
    rows = np.empty((len(keys), width), dtype=dtype)
    step = max(_BLOCK_ENTRIES // max(width, 1), 1)
    for start in range(0, len(keys), step):
        rest, out = keys[start:start + step], rows[start:start + step]
        pos = width
        while pos > chunk:
            quotient = rest // k ** chunk
            out[:, pos - chunk:pos] = np.take(table, rest - quotient * k ** chunk, axis=0)
            rest, pos = quotient, pos - chunk
        out[:, :pos] = np.take(table, rest, axis=0)[:, chunk - pos:]
    return rows


def _last_entries(keys: np.ndarray, k: int) -> np.ndarray:
    """The last entry of each row that _row_keys(rows, k) gives these keys."""
    dtype = _row_dtype(k)
    if keys.dtype.kind == "u":
        return (keys % k).astype(dtype)
    width = keys.itemsize // dtype.itemsize
    return keys.view(dtype)[width - 1::width]


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys in increasing order.

    A sort and a mask of equal neighbours: np.unique hashes integer keys,
    which is tens of times slower for uint64.
    """
    return _drop_repeats(np.sort(keys))


def _drop_repeats(keys: np.ndarray) -> np.ndarray:
    """Sorted keys without their repeats: keys itself when there are none."""
    repeated = keys[1:] == keys[:-1]
    if not repeated.any():
        return keys
    return keys[np.concatenate(([True], ~repeated))]


def _isin_sorted(keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Mask of the probe keys that occur in the sorted keys, in the probe's shape."""
    if not len(keys):
        return np.zeros(probe.shape, dtype=bool)
    pos = np.searchsorted(keys, probe)
    np.minimum(pos, len(keys) - 1, out=pos)
    return keys[pos] == probe


def _unique_rows(rows: np.ndarray, k: int) -> np.ndarray:
    """The distinct rows of a 2-d array of _row_dtype(k), in lexicographic order."""
    return _key_rows(_sorted_distinct(_row_keys(rows, k)), k, rows.shape[1])


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


def _digit_matrix(width: int, k: int, dtype=np.int64, out: np.ndarray | None = None,
                  first: int = 0) -> np.ndarray:
    """Rows 0..k^width-1 written as width base-k digits, most significant first.

    Column pos repeats each digit k^(width-1-pos) times, k^pos times over:
    range(k) broadcast into that shape of a view of the output.  Given out,
    a C-contiguous 2-d array whose rows are a multiple of k^width, the digits
    are written into its columns first, ..., first+width-1, once per k^width
    rows, and out is returned.
    """
    if out is None:
        out = np.empty((k ** width, width), dtype=dtype)
    columns = out.shape[1]
    # an empty out (k = 0) has no groups of k^width rows to write
    for pos in range(width if len(out) else 0):
        out.reshape(-1, k, k ** (width - 1 - pos), columns)[..., first + pos] = np.arange(k)[:, None]
    return out


def _restored_rows(rows: np.ndarray, k: int) -> np.ndarray:
    """Unpickled rows as a read-only array of _row_dtype(k): numpy gives
    big-endian rows (k > 256) back in native byte order, and equality,
    hashes and keys read the rows' bytes."""
    rows = rows.astype(_row_dtype(k), copy=False)
    rows.setflags(write=False)
    return rows


def _entry_array(data, k: int) -> np.ndarray:
    """data as an array of _row_dtype(k); it is data itself when that already is one.

    Raises ValueError for ragged rows, an entry that is not an integer
    (bools and numpy integers are) or one outside 0..k-1.
    """
    data = data if isinstance(data, np.ndarray) else list(data)
    try:
        arr = np.asarray(data)
    except ValueError:
        raise ValueError("rows differ in length") from None
    if arr.size and arr.dtype.kind not in "biu":
        # numpy turns uint64 next to signed integers into floats: judge each entry
        arr = np.array(data, dtype=object)
        for v in arr.flat:
            if not isinstance(v, _INTEGER_TYPES):
                raise ValueError(f"entry {v!r} is not an integer (bools and numpy integers are)")
    if arr.size:
        lo, hi = 0 if arr.dtype.kind in "bu" else arr.min(), arr.max()
        if not 0 <= lo <= hi < k:
            raise ValueError(f"entries must lie in 0..{k - 1}, got {lo}..{hi}")
    return arr.astype(_row_dtype(k), copy=False)


def _table_rows(data, k: int, width: int) -> np.ndarray:
    """The distinct rows of data, sorted, as a read-only 2-d array of _row_dtype(k).

    data is a 2-d array or an iterable of rows; strictly increasing rows are
    not sorted again, only copied if they are data's own array.  Raises
    ValueError as _entry_array does, and for a row not width entries long.
    """
    arr = _entry_array(data, k)
    if arr.shape == (0,):
        arr = arr.reshape(0, width)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"rows must have {width} entries each, got shape {arr.shape}")
    if not _strictly_increasing(arr):
        arr = _unique_rows(arr, k)
    elif arr is data:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


class _Record:
    """Base of the small value classes: equal and shown by the tuple of the
    fields that __slots__ names."""
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values()))
        return f"{self.__class__.__name__}({fields})"


class _Frozen(_Record):
    """An immutable _Record, hashed and pickled by its fields: `_init` sets
    them once, in order, and they cannot be assigned or deleted after."""
    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()


class Domain(_Frozen):
    """The domain {0, ..., k-1}, k >= 2."""
    __slots__ = ("k",)

    def __init__(self, k: int):
        if k < 2:
            raise ValueError(f"domain size must be at least 2, got {k}")
        self._init(k)

    # compared and hashed with every operation and relation: one field, inline
    def __eq__(self, other):
        return self.k == other.k if other.__class__ is Domain else NotImplemented

    def __hash__(self):
        return hash((self.k,))

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


class Operation:
    """A finitary operation: row holds its value table, a read-only 1-d array
    of _row_dtype(k) with k^arity entries; table gives it as an int tuple."""

    def __init__(self, domain: Domain, arity: int, table):
        if arity < 1:
            raise ValueError(f"arity must be positive, got {arity}")
        self.domain = domain
        self.arity = arity
        row = _entry_array(table, domain.k)
        if row.shape != (domain.k ** arity,):
            raise ValueError(f"table has {row.size} entries, expected k^n = {domain.k ** arity}")
        self.row = row.copy() if row is table else row
        self.row.setflags(write=False)

    @classmethod
    def _of_row(cls, domain: Domain, arity: int, row: np.ndarray) -> "Operation":
        """The operation whose table is row, unchecked: row must be a read-only
        1-d array of _row_dtype(domain.k) with k^arity entries."""
        op = cls.__new__(cls)
        op.domain, op.arity, op.row = domain, arity, row
        return op

    @cached_property
    def table(self) -> tuple[int, ...]:
        return tuple(self.row.tolist())

    def __call__(self, *args: int) -> int:
        return evaluate(self, args)

    def __eq__(self, other):
        if not isinstance(other, Operation):
            return NotImplemented
        return (self.domain == other.domain and self.arity == other.arity
                and np.array_equal(self.row, other.row))

    def __hash__(self):
        return hash((self.domain, self.arity, self.row.tobytes()))

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.row = _restored_rows(self.row, self.domain.k)

    def __repr__(self):
        t = list(self.table) if len(self.row) <= 32 else f"<{len(self.row)} entries>"
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

    @classmethod
    def _of_rows(cls, domain: Domain, arity: int, rows: np.ndarray) -> "Relation":
        """The relation whose tuples are rows, unchecked: rows must be a 2-d
        array of _row_dtype(domain.k), arity wide, distinct and sorted; it is
        made read-only."""
        rows.setflags(write=False)
        rel = cls.__new__(cls)
        rel.domain, rel.arity, rel.rows = domain, arity, rows
        return rel

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

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.rows = _restored_rows(self.rows, self.domain.k)

    def __repr__(self):
        ts = list(self.tuples) if len(self) <= 16 else f"<{len(self)} tuples>"
        return f"Relation(k={self.domain.k}, arity={self.arity}, tuples={ts})"


class OperationSet:
    """Operations over one domain, grouped by arity, canonically sorted.

    Each arity is held as its tables, read-only uint8 rows (one per
    operation, sorted lexicographically, no duplicates), or as their sorted
    distinct `_row_keys`, or both; so domains have at most 256 elements.
    A set built from rows computes their keys on first use; a set built
    from keys (`_of_keys`) decodes its tables on the first call of tables(),
    and counts, tests membership and is written (textio) from the keys
    alone.  Operation objects are materialised on demand.
    """

    def __init__(self, domain: Domain, tables_by_arity: dict[int, np.ndarray]):
        if domain.k > 256:
            raise ValueError(f"operation sets hold uint8 tables: domain size {domain.k} "
                             "exceeds 256")
        self.domain = domain
        self._tables = {arity: _table_rows(arr, domain.k, domain.k ** arity)
                        for arity, arr in sorted(tables_by_arity.items())}
        self._arities = tuple(self._tables)
        self._keys: dict[int, np.ndarray] = {}     # _row_keys of the tables, on demand

    @classmethod
    def _of_keys(cls, domain: Domain, arity: int, keys: np.ndarray) -> "OperationSet":
        """The operations of one arity whose tables have these keys, unchecked:
        keys must be _row_keys(tables, domain.k) of k^arity-entry tables over
        a domain of at most 256 elements, in any order and with repeats.

        The set takes keys over: it sorts them in place, and only copies
        them to drop repeats when there are any.  Its tables are decoded
        on the first call of tables().
        """
        keys.sort()
        keys = _drop_repeats(keys)
        keys.setflags(write=False)
        ops = cls.__new__(cls)
        ops.domain, ops._arities, ops._tables, ops._keys = domain, (arity,), {}, {arity: keys}
        return ops

    @classmethod
    def from_operations(cls, domain: Domain, ops) -> "OperationSet":
        grouped: dict[int, list] = {}
        for op in ops:
            if op.domain != domain:
                raise ValueError("all operations must share the domain")
            grouped.setdefault(op.arity, []).append(op.row)
        return cls(domain, grouped)

    def arities(self) -> tuple[int, ...]:
        return self._arities

    def tables(self, arity: int) -> np.ndarray:
        """The tables of one arity, a read-only (count, k^arity) uint8 array."""
        if arity not in self._tables:
            if arity not in self._keys:
                return np.empty((0, self.domain.k ** arity), dtype=np.uint8)
            rows = _key_rows(self._keys[arity], self.domain.k, self.domain.k ** arity)
            rows.setflags(write=False)
            self._tables[arity] = rows
        return self._tables[arity]

    def row_keys(self, arity: int) -> np.ndarray:
        """The _row_keys of tables(arity), sorted and read-only, computed
        from the tables on first use unless the set was built from them."""
        if arity not in self._keys:
            keys = _row_keys(self.tables(arity), self.domain.k)
            keys.setflags(write=False)
            self._keys[arity] = keys
        return self._keys[arity]

    def count(self, arity: int | None = None) -> int:
        if arity is None:
            return sum(map(self.count, self._arities))
        if arity in self._keys:
            return len(self._keys[arity])
        return len(self.tables(arity))

    def members(self, arity: int | None = None):
        """The operations in (arity, table) order."""
        arities = [arity] if arity is not None else self._arities
        for a in arities:
            for row in self.tables(a):
                yield Operation._of_row(self.domain, a, row)

    def __contains__(self, op: Operation) -> bool:
        if op.domain != self.domain or op.arity not in self._arities:
            return False
        probe = _row_keys(op.row[None, :], self.domain.k)
        return bool(_isin_sorted(self.row_keys(op.arity), probe)[0])

    def __len__(self):
        return self.count()

    def __eq__(self, other):
        if not isinstance(other, OperationSet):
            return NotImplemented
        return (self.domain == other.domain
                and self.arities() == other.arities()
                and all(np.array_equal(self.row_keys(a), other.row_keys(a))
                        for a in self._arities))

    def __repr__(self):
        parts = ", ".join(f"{a}-ary: {self.count(a)}" for a in self._arities)
        return f"OperationSet(k={self.domain.k}, {parts or 'empty'})"


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
    k = domain.k
    check_table_entries(k ** arity, f"table of the {arity}-ary projection over k={k}")
    return Operation(domain, arity, _digit_matrix(arity, k, _row_dtype(k))[:, index - 1])


def make_constant(domain: Domain, arity: int, value: int) -> Operation:
    if not 0 <= value < domain.k:
        raise ValueError(f"constant value {value} out of range 0..{domain.k - 1}")
    check_table_entries(domain.k ** arity, f"table of the {arity}-ary constant over k={domain.k}")
    return Operation(domain, arity, np.full(domain.k ** arity, value, _row_dtype(domain.k)))


def sparse_op(domain: Domain, arity: int, values: Mapping[Sequence[int], int]) -> Operation:
    """Operation that is zero everywhere except at the explicitly listed points.

    Raises CapExceeded, before the table is built, when it would have more
    than TABLE_ENTRY_CAP entries.
    """
    k = domain.k
    check_table_entries(k ** arity, f"table of the {arity}-ary operation over k={k}")
    for point in values:
        if len(point) != arity:
            raise ValueError(f"point {tuple(point)} has length {len(point)}, expected {arity}")
    row = np.zeros(k ** arity, dtype=_row_dtype(k))
    row[[args_to_index(point, k) for point in values]] = _entry_array(values.values(), k)
    return Operation(domain, arity, row)


def is_projection(op: Operation) -> int | None:
    """Return the 1-based projected coordinate, or None if op is not a projection."""
    digits = _digit_matrix(op.arity, op.domain.k, op.row.dtype)
    hits = np.flatnonzero((digits == op.row[:, None]).all(axis=0))
    return int(hits[0]) + 1 if len(hits) else None


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
    k, n = op.domain.k, op.arity
    args = _digit_matrix(m, k)[:, [v - 1 for v in var_map]]
    return Operation(op.domain, m, op.row[args @ k ** np.arange(n - 1, -1, -1)])


def graph_of(op: Operation) -> Relation:
    """The (n+1)-ary relation {(x, op(x))}.

    Its rows are the argument tuples in lexicographic order, each followed by
    its value, so they are distinct and sorted as built."""
    k, n = op.domain.k, op.arity
    rows = _digit_matrix(n, k, out=np.empty((k ** n, n + 1), dtype=op.row.dtype))
    rows[:, n] = op.row
    return Relation._of_rows(op.domain, n + 1, rows)


def image_of(op: Operation) -> Relation:
    return Relation(op.domain, 1, np.unique(op.row)[:, None])


def fix_of(op: Operation) -> Relation:
    k = op.domain.k
    elements = np.arange(k)
    diagonal = op.row[elements * ((k ** op.arity - 1) // (k - 1))]   # op(z, ..., z)
    return Relation(op.domain, 1, elements[diagonal == elements][:, None])


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


def kernel_of(op: Operation) -> Relation | KernelView:
    """ker(op) as a 2n-ary relation of pairs of argument tuples with equal value.

    Materialised, one block per value class, only when its entry count (tuples
    times 2n) fits TABLE_ENTRY_CAP; otherwise a KernelView handle is returned.
    """
    n, k = op.arity, op.domain.k
    sizes = np.bincount(op.row, minlength=k)
    if int((sizes ** 2).sum()) * 2 * n > TABLE_ENTRY_CAP:
        return KernelView(op)
    digits = _digit_matrix(n, k, op.row.dtype)
    blocks = []
    for v in np.flatnonzero(sizes):
        args = digits[op.row == v]
        blocks.append(np.hstack([np.repeat(args, len(args), axis=0),
                                 np.tile(args, (len(args), 1))]))
    return Relation(op.domain, 2 * n, np.vstack(blocks))
