"""Primitive positive formulas over named finite relations.

A formula is a conjunction of relation atoms over free and existentially
quantified variables; its semantics is the projection of the satisfying set
to the free variables, optionally expanded through a coordinate duplication
map (for defined relations with repeated coordinates).

A formula is a conjunctive query, evaluated by joining the atoms' relations
and projecting.  A table of partial assignments, one row per assignment
(rows in the encoding of `core`, the same as the relations' rows), is
extended one variable at a time.  By default the free variables that occur
in some atom come first, then the existential ones in order of first
appearance, last the free variables that occur in no atom, which range over
the whole domain.  But an atom with one unbound variable v, b bound
positions and fewer than k^(b+1) rows pins v, fewer than k values per bound
prefix on average, and v comes next (generic join one variable at a time:
Ngo, Porat, Ré, Rudra, PODS 2012; Veldhuizen, ICDT 2014).  v is read off
the atom's rows, read with v's position last, by looking up each row's
bound prefix, when that relation has fewer rows than the table times k;
otherwise, as for every other variable, each row is extended by all k
values.  The extended rows are filtered by every atom whose variables are
then all bound, in one keyed lookup per relation: the atoms over a relation
are held as one matrix of variable ids, and the keys of the completed
atoms' columns (`core._row_keys`, the row read as a base-k number) are
looked up among the keys of the relation's rows, for a block of rows and
atoms at a time.  The keys of a relation's rows in one column
order are indexed once (`_Index`).  When they are integers and their key
space of k^width keys has at most 8 keys per row, the index is a bitmap
over that space, which takes no more bytes than uint64 keys would: a key is
looked up by one read, and a prefix's rows are one row of k entries of the
bitmap.  Otherwise, for wide keys (the row's bytes) and sparse relations,
it is the sorted keys, searched by bisection, and a prefix's rows are a
range of them.  The pinning candidates and the columns still needed are
read off the same matrices.  Existential columns that no remaining atom
mentions are then dropped and repeated rows removed.

Each extension step is one pipeline over blocks of rows.  The variable,
lookup or not, the atoms it completes and the columns that stay are chosen
for the whole table; then each block of table rows whose extension has at
most FILTER_BLOCK_ROWS rows is extended, filtered, cut to the columns that
stay and deduplicated, and written into one output array sized for the
whole extension, which ends cut to the rows written; rows repeated across
blocks are removed at the end.  So a step holds its input table, its
output and one block of the extension, never the whole extension: at k=4
the 262,144 x 12 extension of the snow formula's lookup is never built, and
its 64-row result is all the step keeps.  A table of one block is extended
as one block, with no output array.  Any extension that would exceed
EVAL_TABLE_BYTES, including those by unconstrained free variables, raises
CapExceeded before its first block is built: a lookup counts its rows
first.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from .core import (CapExceeded, Domain, Relation, _isin_sorted, _last_entries, _row_dtype,
                   _row_keys, _unique_rows)

EVAL_TABLE_BYTES = 1 << 26
FILTER_BLOCK_ROWS = 1 << 16
# a bitmap index may span this many keys per row: its bytes are then at
# most those of uint64 keys
BITMAP_KEYS_PER_ROW = 8


@dataclass(frozen=True)
class PPFormula:
    domain: Domain
    free_vars: tuple[str, ...]
    exist_vars: tuple[str, ...]
    atoms: tuple[tuple[str, tuple[str, ...]], ...]
    alpha: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.free_vars:
            raise ValueError("a formula needs at least one free variable")
        declared = list(self.free_vars) + list(self.exist_vars)
        if len(set(declared)) != len(declared):
            raise ValueError("variable names must be unique")
        names = set(declared)
        for rel_name, vars_ in self.atoms:
            for v in vars_:
                if v not in names:
                    raise ValueError(f"atom over '{rel_name}' uses undeclared variable '{v}'")
        if self.alpha is not None:
            for a in self.alpha:
                if not 1 <= a <= len(self.free_vars):
                    raise ValueError(f"duplication map entry {a} out of range")

    @property
    def output_arity(self) -> int:
        return len(self.alpha) if self.alpha is not None else len(self.free_vars)

    @property
    def unconstrained_free(self) -> tuple[str, ...]:
        used = {v for _, vars_ in self.atoms for v in vars_}
        return tuple(v for v in self.free_vars if v not in used)


class RelationEnv(Mapping):
    """Named relations over a common domain; iteration keeps insertion order."""

    def __init__(self, items: Iterable[tuple[str, Relation]] | Mapping[str, Relation]):
        pairs = list(items.items()) if isinstance(items, Mapping) else list(items)
        if not pairs:
            raise ValueError("relation environment must not be empty")
        self._rels: dict[str, Relation] = {}
        domain = pairs[0][1].domain
        for name, rel in pairs:
            if rel.domain != domain:
                raise ValueError("all relations in an environment must share the domain")
            if name in self._rels:
                raise ValueError(f"duplicate relation name '{name}'")
            self._rels[name] = rel
        self.domain = domain

    def __getitem__(self, name: str) -> Relation:
        return self._rels[name]

    def __iter__(self):
        return iter(self._rels)

    def __len__(self):
        return len(self._rels)


def _check_table_size(count: int, width: int, itemsize: int) -> None:
    """Raise CapExceeded when a table of count partial assignments to width
    variables would exceed EVAL_TABLE_BYTES."""
    size = count * width * itemsize
    if size > EVAL_TABLE_BYTES:
        raise CapExceeded(f"a table of {count} partial assignments to "
                          f"{width} variables takes {size} bytes, "
                          f"over the cap of {EVAL_TABLE_BYTES}")


class _Index:
    """The keys (core._row_keys) of a relation's rows read in one column
    order, for membership tests and for lookups of the last entry after a
    prefix of the others.

    Integer keys whose key space of k^width keys has at most
    BITMAP_KEYS_PER_ROW keys per row are held as a bitmap over that space,
    present[key]; the others, wide keys and sparse relations, as the sorted
    keys.
    """

    def __init__(self, keys: np.ndarray, k: int, width: int, is_sorted: bool):
        self.k, self.present, self.keys = k, None, None
        self._per_prefix = None     # a bitmap's row count per prefix, on first use
        if keys.dtype.kind == "u" and k ** width <= BITMAP_KEYS_PER_ROW * len(keys):
            self.present = np.zeros(k ** width, dtype=bool)
            self.present[keys] = True
        else:
            self.keys = keys if is_sorted else np.sort(keys)

    @classmethod
    def of_bitmap(cls, present: np.ndarray, k: int) -> "_Index":
        """The index whose bitmap is present, a 1-d bool array over the key space."""
        index = cls.__new__(cls)
        index.k, index.present, index.keys, index._per_prefix = k, present, None, None
        return index

    def contains(self, probe: np.ndarray) -> np.ndarray:
        """Mask of the probe keys that are keys of the rows."""
        if self.present is not None:
            return self.present[probe]
        return _isin_sorted(self.keys, probe)

    def find(self, prefixes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each prefix, a row of all entries but the last: where the
        rows that start with it are, and how many there are.  For a bitmap
        the place is the prefix's key, the row of k entries of present that
        holds them; for sorted keys, the position of the first."""
        if self.present is not None:
            if self._per_prefix is None:
                self._per_prefix = np.zeros(len(self.present) // self.k,
                                            dtype=np.min_scalar_type(self.k))
                for hits in self.present.reshape(-1, self.k).T:
                    self._per_prefix += hits
            at = _row_keys(prefixes, self.k)
            return at, self._per_prefix[at]
        # the rows between (prefix, 0) and (prefix, k - 1)
        bounds = np.empty((len(prefixes), prefixes.shape[1] + 1), dtype=prefixes.dtype)
        bounds[:, :-1] = prefixes
        bounds[:, -1] = 0
        at = np.searchsorted(self.keys, _row_keys(bounds, self.k), "left")
        bounds[:, -1] = self.k - 1
        return at, np.searchsorted(self.keys, _row_keys(bounds, self.k), "right") - at

    def last_entries(self, at: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """The last entries of the rows that find placed at at, counts[i]
        of them at at[i]: prefix by prefix, each prefix's in increasing
        order."""
        if self.present is not None:
            hits = np.take(self.present.reshape(-1, self.k), at, axis=0)
            return (np.flatnonzero(hits) % self.k).astype(_row_dtype(self.k))
        # the j-th row of prefix i is keys[at[i] + j]
        counts = counts.astype(np.intp)
        before = np.cumsum(counts) - counts
        return _last_entries(self.keys[np.repeat(at - before, counts)
                                       + np.arange(counts.sum())], self.k)


def _holds(index: _Index, table: np.ndarray, cols: np.ndarray, k: int) -> np.ndarray:
    """Mask of the table rows whose entries in the columns of every atom are
    a row of the index; cols holds a row of column positions per atom.

    Every row's keys for every atom are looked up at once, so the caller
    passes a block of rows and few enough atoms.
    """
    atoms, arity = cols.shape
    probe = _row_keys(np.take(table, cols.ravel(), axis=1).reshape(-1, arity), k)
    return index.contains(probe).reshape(-1, atoms).all(axis=1)


def _pin_bound(size: int, k: int) -> int:
    """The fewest bound positions b with which an atom over size rows pins
    its last unbound variable: size < k^(b+1)."""
    bound, power = 0, k
    while power <= size:
        bound, power = bound + 1, power * k
    return bound


def _lookup_order(vars_: tuple[str, ...], var: str) -> tuple[int, ...]:
    """The atom's positions in the order for looking up var: the positions
    of the other variables first, var's first position last.  var's other
    positions are left out."""
    return tuple(i for i, v in enumerate(vars_) if v != var) + (vars_.index(var),)


def _lookup_size(table: np.ndarray, probe: list[int], index: _Index,
                 k: int) -> tuple[int, int]:
    """The rows that extending the table by lookup gives, and a bound on
    the rows and the entries of the index one table row reads: the most
    last entries of one prefix, and k for a bitmap, whose last entries
    read a row of k entries.  The prefixes are counted FILTER_BLOCK_ROWS
    rows at a time."""
    total, most = 0, 0
    for start in range(0, len(table), FILTER_BLOCK_ROWS):
        _, counts = index.find(table[start:start + FILTER_BLOCK_ROWS, probe])
        total += int(counts.sum())
        most = max(most, int(counts.max(initial=0)))
    return total, max(most, k if index.present is not None else 1)


def _extend_by_lookup(table: np.ndarray, probe: list[int], index: _Index,
                      k: int) -> np.ndarray:
    """Each table row followed by every last entry of the index's rows
    that start with the table row's entries in the probe columns, in one
    pass: the caller passes a block of rows and has charged the whole
    extension (_lookup_size)."""
    at, counts = index.find(table[:, probe])
    grown = np.empty((int(counts.sum()), table.shape[1] + 1), dtype=table.dtype)
    grown[:, :-1] = np.repeat(table, counts, axis=0)
    grown[:, -1] = index.last_entries(at, counts)
    return grown


def _extend_by_domain(table: np.ndarray, k: int) -> np.ndarray:
    """Each table row followed by each of the k values, in increasing order."""
    count, width = table.shape
    grown = np.empty((count, k, width + 1), dtype=table.dtype)
    grown[:, :, :width] = table[:, None, :]
    grown[:, :, width] = np.arange(k, dtype=table.dtype)
    return grown.reshape(count * k, width + 1)


def _distinct(rows: np.ndarray, k: int) -> np.ndarray:
    """The distinct rows, sorted; one row of no entries stands for any."""
    return _unique_rows(rows, k) if rows.shape[1] else rows[:1]


def _extend_block(block: np.ndarray, extend, filters: list, keep: np.ndarray,
                  k: int) -> np.ndarray:
    """The block's extension (extend(block)) filtered, cut to the keep
    columns and, if that drops any, deduplicated; filters holds, per
    relation, its index and a row of the extension's columns per atom."""
    rows = extend(block)
    for index, cols in filters:
        # as many atoms at a time as gather FILTER_BLOCK_ROWS entries, or
        # one; each drops its failing rows before the next
        while len(cols) and len(rows):
            atoms = max(FILTER_BLOCK_ROWS // (len(rows) * cols.shape[1]), 1)
            rows = rows[_holds(index, rows, cols[:atoms], k)]
            cols = cols[atoms:]
    if len(keep) < rows.shape[1]:
        rows = _distinct(rows[:, keep], k)
    return rows


def _extension_step(table: np.ndarray, extend, per_row: int, total: int, filters: list,
                    keep: np.ndarray, k: int) -> np.ndarray:
    """The table extended by one variable, filtered by the atoms the
    variable completes, cut to the keep columns and rid of repeated rows.

    extend maps a block of table rows to their extension, at most per_row
    rows per table row and total in all.  The table is taken a block at a
    time, as many rows as extend to at most FILTER_BLOCK_ROWS rows (or
    one), and each block's result (_extend_block) is written into one
    output array of total rows, then cut to the rows written; so no more
    than a block of the extension is held at once.  Rows that repeat
    across blocks are removed from the output at the end.
    """
    step = max(FILTER_BLOCK_ROWS // per_row, 1)
    if len(table) <= step:
        return _extend_block(table, extend, filters, keep, k)
    out = np.empty((total, len(keep)), dtype=_row_dtype(k))
    size = 0
    for start in range(0, len(table), step):
        rows = _extend_block(table[start:start + step], extend, filters, keep, k)
        out[size:size + len(rows)] = rows
        size += len(rows)
    if len(keep) <= table.shape[1]:     # a column was dropped
        return _distinct(out[:size], k)
    out.resize((size, len(keep)), refcheck=False)
    return out


class _Atoms:
    """The pending atoms over one relation: a row of variable ids per atom
    and each atom's place in the formula."""

    def __init__(self, rel: Relation, ids: np.ndarray, places: np.ndarray, k: int):
        self.rel, self.ids, self.places = rel, ids, places
        self.min_bound = _pin_bound(len(rel), k)
        # rows per bound prefix of b positions, as len(rel) / k^b for each b
        self.per_prefix = np.array([len(rel) / k ** b for b in range(rel.arity + 1)])
        self.indexes: dict[tuple[int, ...], _Index] = {}    # by column order, on first use

    def index(self, order: tuple[int, ...], k: int) -> _Index:
        """The index of the relation's rows read in this column order.  A
        position the order leaves out must hold the same entry as the
        order's last position; rows that differ there are left out."""
        if order not in self.indexes:
            identity = tuple(range(self.rel.arity))
            base = self.indexes.get(identity)
            if sorted(order) == list(identity) and base is not None and base.present is not None:
                # permuting the columns permutes the axes of the identity bitmap
                present = base.present.reshape((k,) * len(order)).transpose(order)
                self.indexes[order] = _Index.of_bitmap(np.ascontiguousarray(present).ravel(), k)
            else:
                rows = self.rel.rows
                other = [i for i in identity if i not in order]
                if other:
                    rows = rows[(rows[:, other] == rows[:, order[-1:]]).all(axis=1)]
                keys = _row_keys(rows if order == identity else rows[:, order], k)
                self.indexes[order] = _Index(keys, k, len(order), order == identity)
        return self.indexes[order]


def eval_formula(formula: PPFormula, env: RelationEnv | Mapping[str, Relation]) -> Relation:
    """The relation defined by the formula: projection of the satisfying set.

    Of several pinned variables the one with the fewest values per bound
    prefix comes next, ties in the default order, then in atom order.
    Raises CapExceeded, before the table is extended, when the extended
    table of partial assignments would exceed EVAL_TABLE_BYTES.
    """
    if not isinstance(env, RelationEnv):
        env = RelationEnv(env)
    if env.domain != formula.domain:
        raise ValueError("formula and environment domains differ")
    k = formula.domain.k
    dtype = _row_dtype(k)
    arity = {name: rel.arity for name, rel in env.items()}
    for rel_name, vars_ in formula.atoms:
        if arity.get(rel_name) != len(vars_):
            if rel_name not in arity:
                raise ValueError(f"missing relation '{rel_name}' in the environment")
            raise ValueError(f"atom over '{rel_name}' has {len(vars_)} variables, "
                             f"relation arity is {arity[rel_name]}")
    used = dict.fromkeys(chain.from_iterable(vars_ for _, vars_ in formula.atoms))
    # free variables in some atom, then existential ones, then the other free ones;
    # a variable's id is its place in this order
    order = list(dict.fromkeys([v for v in formula.free_vars if v in used] + list(used)
                               + list(formula.free_vars)))
    rank = {v: i for i, v in enumerate(order)}
    id_dtype = np.min_scalar_type(len(order))
    # each atom's relation, as its place in env, and its variable ids
    index = {name: i for i, name in enumerate(env)}
    rel_of = np.fromiter(map(index.__getitem__, (rel_name for rel_name, _ in formula.atoms)),
                         np.intp, len(formula.atoms))
    widths = np.array(list(arity.values()))[rel_of]
    ids = np.fromiter(map(rank.__getitem__,
                          chain.from_iterable(vars_ for _, vars_ in formula.atoms)),
                      id_dtype, widths.sum())
    starts = np.cumsum(widths) - widths     # where each atom's ids begin
    place_dtype = np.min_scalar_type(len(formula.atoms))
    groups = []
    for i, rel in enumerate(env.values()):
        places = np.flatnonzero(rel_of == i)
        if len(places):
            groups.append(_Atoms(rel, ids[starts[places, None] + np.arange(rel.arity)],
                                 places.astype(place_dtype), k))
    free = np.zeros(len(order), dtype=bool)
    free[[rank[v] for v in formula.free_vars]] = True
    added = np.zeros(len(order), dtype=bool)
    column = np.zeros(len(order), dtype=np.intp)     # the column of each variable in cols
    # one row per partial assignment of the variables in cols
    table = np.zeros((1, 0), dtype=dtype)
    cols = np.zeros(0, dtype=id_dtype)
    while not added.all():
        pin, pin_key = None, None
        for group in groups:
            ids = group.ids
            if not len(ids):
                continue
            known = added[ids]
            # the atoms whose unbound positions all hold one variable pin it
            unbound = ids[np.arange(len(ids)), known.argmin(axis=1)]
            bound = known.sum(axis=1)
            pins = np.flatnonzero(((ids == unbound[:, None]) | known).all(axis=1)
                                  & (bound >= group.min_bound))
            if not len(pins):
                continue
            best = pins[np.lexsort((group.places[pins], unbound[pins],
                                    group.per_prefix[bound[pins]]))[0]]
            key = (float(group.per_prefix[bound[best]]), int(unbound[best]),
                   int(group.places[best]))
            if pin is None or key < pin_key:
                pin, pin_key = group, key
        count, width = table.shape
        looked_up = None    # the place of the atom whose lookup adds var
        if pin is None:
            var = int(added.argmin())       # the first variable of the default order not added
        else:
            _, var, place = pin_key
            if count * k > len(pin.rel):
                looked_up = place
        if looked_up is None:
            total, per_row = count * k, k
            extend = lambda block: _extend_by_domain(block, k)
        else:
            vars_ = formula.atoms[looked_up][1]
            probe = [int(column[rank[v]]) for v in vars_ if v != order[var]]
            index = pin.index(_lookup_order(vars_, order[var]), k)
            total, per_row = _lookup_size(table, probe, index, k)
            extend = lambda block: _extend_by_lookup(block, probe, index, k)
        _check_table_size(total, width + 1, dtype.itemsize)
        added[var] = True
        column[var] = width
        cols = np.append(cols, np.array(var, dtype=id_dtype))
        # the atoms var completes filter the extension, but for the one
        # looked up, which only adds rows that satisfy it; the columns of
        # existential variables that no other atom holds are dropped
        needed = free.copy()
        filters = []
        for group in groups:
            complete = added[group.ids].all(axis=1)
            if complete.any():
                check = complete if looked_up is None else complete & (group.places != looked_up)
                if check.any():
                    filters.append((group.index(tuple(range(group.rel.arity)), k),
                                    column[group.ids[check]]))
                group.ids, group.places = group.ids[~complete], group.places[~complete]
            needed[group.ids] = True
        keep = np.flatnonzero(needed[cols])
        table = _extension_step(table, extend, per_row, total, filters, keep, k)
        cols = cols[keep]
        column[cols] = np.arange(len(cols))
    alpha = formula.alpha or range(1, len(formula.free_vars) + 1)
    columns = [column[rank[formula.free_vars[a - 1]]] for a in alpha]
    return Relation(formula.domain, formula.output_arity, table[:, columns])


def formula_defines(formula: PPFormula, env, goal: Relation) -> bool:
    result = eval_formula(formula, env)
    if result.arity != goal.arity:
        raise ValueError(f"formula output arity {result.arity} differs from "
                         f"goal arity {goal.arity}")
    return result == goal


# ---------------------------------------------------------------------------
# text format

def emit_text(formula: PPFormula) -> str:
    lines = [f"domain {formula.domain.k}",
             "freevars " + " ".join(formula.free_vars),
             "exists " + " ".join(formula.exist_vars)]
    if formula.alpha is not None:
        lines.append("alpha " + " ".join(map(str, formula.alpha)))
    for rel_name, vars_ in formula.atoms:
        lines.append(f"atom {rel_name} " + " ".join(vars_))
    return "\n".join(lines) + "\n"


def parse_formula(text: str) -> PPFormula:
    from .textio import FormatError
    domain = None
    free: list[str] = []
    exist: list[str] = []
    alpha = None
    atoms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head, rest = parts[0], parts[1:]
        if head == "domain":
            if len(rest) != 1 or not rest[0].isdigit():
                raise FormatError(lineno, 1, "expected 'domain <k>'")
            domain = Domain(int(rest[0]))
        elif head == "freevars":
            free = rest
        elif head == "exists":
            exist = rest
        elif head == "alpha":
            try:
                alpha = tuple(int(x) for x in rest)
            except ValueError:
                raise FormatError(lineno, 1, "alpha entries must be integers") from None
        elif head == "atom":
            if len(rest) < 2:
                raise FormatError(lineno, 1, "atom needs a relation name and variables")
            atoms.append((rest[0], tuple(rest[1:])))
        else:
            raise FormatError(lineno, 1, f"unknown directive '{head}'")
    if domain is None:
        raise FormatError(1, 1, "formula is missing a 'domain' line")
    return PPFormula(domain, tuple(free), tuple(exist), tuple(atoms), alpha)


# ---------------------------------------------------------------------------
# SMT-LIB emission

def _smt_symbol(name: str) -> str:
    """Map a relation name to a legal SMT-LIB simple symbol."""
    if name == "=":
        return "eq"
    cleaned = "".join(c if c.isalnum() or c == "_" else f"_{ord(c)}_" for c in name)
    return cleaned if cleaned and not cleaned[0].isdigit() else f"r_{cleaned}"


def _smt_membership(name: str, rel: Relation) -> list[str]:
    """define-fun lines for membership in rel; graphs become value functions."""
    k = rel.domain.k
    name = _smt_symbol(name)
    args = [f"a{i}" for i in range(1, rel.arity + 1)]
    lines = []
    # the graph of a total function: k^(m-1) rows with distinct prefixes
    if rel.arity > 1 and len({t[:-1] for t in rel.tuples}) == len(rel) == k ** (rel.arity - 1):
        params = " ".join(f"({a} Int)" for a in args[:-1])
        body = "0"
        for *prefix, value in reversed(rel.tuples):
            if value == 0:
                continue  # covered by the default branch
            cond = " ".join(f"(= {a} {v})" for a, v in zip(args, prefix))
            body = f"(ite (and {cond}) {value} {body})"
        lines.append(f"(define-fun val_{name} ({params}) Int {body})")
        params_all = " ".join(f"({a} Int)" for a in args)
        call = " ".join(args[:-1])
        lines.append(f"(define-fun mem_{name} ({params_all}) Bool "
                     f"(= (val_{name} {call}) {args[-1]}))")
    else:
        params_all = " ".join(f"({a} Int)" for a in args)
        if rel.tuples:
            disj = " ".join(
                "(and " + " ".join(f"(= {a} {v})" for a, v in zip(args, t)) + ")"
                for t in rel.tuples)
            body = f"(or {disj})" if len(rel.tuples) > 1 else disj
        else:
            body = "false"
        lines.append(f"(define-fun mem_{name} ({params_all}) Bool {body})")
    return lines


def emit_smt(formula: PPFormula, env, goal: Relation) -> str:
    """SMT-LIB 2.0 script asserting a disagreement between formula and goal.

    The solver answering `unsat` certifies that the formula defines the goal
    relation exactly.
    """
    if not isinstance(env, RelationEnv):
        env = RelationEnv(env)
    if goal.arity != formula.output_arity:
        raise ValueError("goal arity differs from the formula output arity")
    k = formula.domain.k
    out = ["; primitive positive definability check: unsat <=> formula defines goal",
           "(set-logic ALL)"]
    used = {rel_name for rel_name, _ in formula.atoms}
    for name in env:
        if name in used:
            out.extend(_smt_membership(name, env[name]))
    out.extend(_smt_membership("goal", goal))
    rng = []
    for v in formula.free_vars:
        out.append(f"(declare-const {v} Int)")
        rng.append(f"(and (<= 0 {v}) (< {v} {k}))")
    out.append("(assert (and " + " ".join(rng) + "))")
    atom_terms = [f"(mem_{_smt_symbol(rel_name)} " + " ".join(vars_) + ")"
                  for rel_name, vars_ in formula.atoms]
    if formula.exist_vars:
        binders = " ".join(f"({y} Int)" for y in formula.exist_vars)
        y_rng = [f"(and (<= 0 {y}) (< {y} {k}))" for y in formula.exist_vars]
        inner = " ".join(y_rng + atom_terms)
        body = f"(exists ({binders}) (and {inner}))"
    elif atom_terms:
        body = "(and " + " ".join(atom_terms) + ")" if len(atom_terms) > 1 else atom_terms[0]
    else:
        body = "true"
    alpha = formula.alpha or tuple(range(1, len(formula.free_vars) + 1))
    goal_args = " ".join(formula.free_vars[a - 1] for a in alpha)
    out.append(f"(assert (xor {body} (mem_goal {goal_args})))")
    out.append("(check-sat)")
    return "\n".join(out) + "\n"
