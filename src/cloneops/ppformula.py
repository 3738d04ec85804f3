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
the atom's rows by looking up each row's bound prefix, as a range of the
sorted keys of the atom's rows with v's position last, when that relation
has fewer rows than the table times k; otherwise, as for every other
variable, each row is extended by all k values.  After each extension the
rows are filtered by every atom whose variables are now all bound, in one
keyed lookup per relation: the atoms over a relation are held as one matrix
of variable ids, and the keys of the completed atoms' columns
(`core._row_keys`, the row read as a base-k number) are looked up among the
keys of the relation's sorted rows, for a block of rows and atoms at a time.
The pinning candidates and the columns still needed are read off the same
matrices.  Existential columns that no remaining atom mentions are then
dropped and repeated rows removed.  Any table that would exceed
EVAL_TABLE_BYTES, including the extensions by unconstrained free variables,
raises CapExceeded before it is built.
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


def _holds(keys: np.ndarray, table: np.ndarray, cols: np.ndarray, k: int) -> np.ndarray:
    """Mask of the table rows whose entries in the columns of every atom form
    one of the sorted keys; cols holds a row of column positions per atom.

    The rows are looked up in blocks, at most FILTER_BLOCK_ROWS keys at a
    time, so the temporaries stay small next to the table.
    """
    atoms, arity = cols.shape
    flat = cols.ravel()
    step = max(FILTER_BLOCK_ROWS // atoms, 1)
    mask = np.empty(len(table), dtype=bool)
    for start in range(0, len(table), step):
        probe = _row_keys(np.take(table[start:start + step], flat, axis=1)
                          .reshape(-1, arity), k)
        hits = _isin_sorted(keys, probe).reshape(-1, atoms)
        mask[start:start + len(hits)] = hits.all(axis=1)
    return mask


def _pin_bound(size: int, k: int) -> int:
    """The fewest bound positions b with which an atom over size rows pins
    its last unbound variable: size < k^(b+1)."""
    bound, power = 0, k
    while power <= size:
        bound, power = bound + 1, power * k
    return bound


def _lookup_keys(rows: np.ndarray, vars_: tuple[str, ...], var: str, k: int) -> np.ndarray:
    """The sorted keys of the atom's relation rows reordered for looking up
    var: the positions of the other variables first, var's first position
    last.

    Rows whose entries differ at var's positions satisfy no assignment and
    are left out, so the keys stay distinct.
    """
    at = [i for i, v in enumerate(vars_) if v == var]
    if len(at) > 1:
        rows = rows[(rows[:, at[1:]] == rows[:, at[:1]]).all(axis=1)]
    order = [i for i, v in enumerate(vars_) if v != var] + at[:1]
    if order == list(range(len(vars_))):
        return _row_keys(rows, k)
    return np.sort(_row_keys(rows[:, order], k))


def _extend_by_lookup(table: np.ndarray, probe: list[int], keys: np.ndarray,
                      k: int) -> np.ndarray:
    """Each table row followed by every last entry of the rows, given by
    their sorted keys, that start with the table row's entries in the probe
    columns.

    Works in blocks, like _holds.  Raises CapExceeded before the extended
    table is built when it would exceed EVAL_TABLE_BYTES.
    """
    count, width = table.shape
    # the rows starting with a prefix lie between (prefix, 0) and (prefix, k - 1)
    first = np.empty(count, dtype=np.int64)
    ends = np.empty(count, dtype=np.int64)
    for start in range(0, count, FILTER_BLOCK_ROWS):
        block = slice(start, start + FILTER_BLOCK_ROWS)
        bounds = np.empty((len(table[block]), len(probe) + 1), dtype=table.dtype)
        bounds[:, :-1] = table[block, probe]
        bounds[:, -1] = 0
        first[block] = np.searchsorted(keys, _row_keys(bounds, k), "left")
        bounds[:, -1] = k - 1
        ends[block] = np.searchsorted(keys, _row_keys(bounds, k), "right")
    ends -= first                   # the match count of each table row
    np.cumsum(ends, out=ends)       # one past its last output row
    total = int(ends[-1]) if count else 0
    _check_table_size(total, width + 1, table.itemsize)
    first[1:] -= ends[:-1]          # output row j of table row i reads keys[first[i] + j]
    grown = np.empty((total, width + 1), dtype=table.dtype)
    for start in range(0, total, FILTER_BLOCK_ROWS):
        out = np.arange(start, min(start + FILTER_BLOCK_ROWS, total))
        source = np.searchsorted(ends, out, "right")
        grown[out[0]:out[-1] + 1, :width] = table[source]
        grown[out[0]:out[-1] + 1, width] = _last_entries(keys[first[source] + out], k)
    return grown


class _Atoms:
    """The pending atoms over one relation: a row of variable ids per atom
    and each atom's place in the formula."""

    def __init__(self, rel: Relation, ids: np.ndarray, places: np.ndarray, k: int):
        self.rel, self.ids, self.places = rel, ids, places
        self.min_bound = _pin_bound(len(rel), k)
        # rows per bound prefix of b positions, as len(rel) / k^b for each b
        self.per_prefix = np.array([len(rel) / k ** b for b in range(rel.arity + 1)])
        self.keys = None        # the relation's row keys, made on first use


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
    looked_up = None        # the place of the atom whose lookup added the last variable
    while True:
        needed = free.copy()
        pin, pin_key = None, None
        for group in groups:
            known = added[group.ids]
            complete = known.all(axis=1)
            if complete.any():
                # a lookup only adds rows that satisfy its atom
                check = complete if looked_up is None else complete & (group.places != looked_up)
                if check.any():
                    if group.keys is None:
                        group.keys = _row_keys(group.rel.rows, k)
                    # as many atoms at a time as gather FILTER_BLOCK_ROWS entries
                    # from the whole table, or one; each block drops its failing
                    # rows, and the table they leave, before the next
                    cols_of = column[group.ids[check]]
                    while len(cols_of) and len(table):
                        size = max(FILTER_BLOCK_ROWS // (len(table) * cols_of.shape[1]), 1)
                        table = table[_holds(group.keys, table, cols_of[:size], k)]
                        cols_of = cols_of[size:]
                group.ids, group.places = group.ids[~complete], group.places[~complete]
                known = known[~complete]
            ids = group.ids
            if not len(ids):
                continue
            needed[ids] = True
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
        keep = np.flatnonzero(needed[cols])
        if len(keep) < len(cols):
            cols = cols[keep]
            table = _unique_rows(table[:, keep], k) if len(keep) else table[:1, :0]
            column[cols] = np.arange(len(cols))
        if added.all():
            break
        count, width = table.shape
        looked_up = None
        if pin is None:
            var = int(added.argmin())       # the first variable of the default order not added
        else:
            _, var, place = pin_key
            rel = pin.rel
            if count * k > len(rel):
                looked_up = place
                vars_ = formula.atoms[place][1]
                table = _extend_by_lookup(
                    table, [int(column[rank[v]]) for v in vars_ if v != order[var]],
                    _lookup_keys(rel.rows, vars_, order[var], k), k)
        if looked_up is None:
            _check_table_size(count * k, width + 1, table.itemsize)
            grown = np.empty((count, k, width + 1), dtype=dtype)
            grown[:, :, :width] = table[:, None, :]
            grown[:, :, width] = np.arange(k, dtype=dtype)
            table = grown.reshape(count * k, width + 1)
        column[var] = width
        cols = np.append(cols, np.array(var, dtype=id_dtype))
        added[var] = True
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
