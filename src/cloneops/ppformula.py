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
rows are filtered by every atom whose variables are now all bound, by
looking up the key of the atom's columns (`core._row_keys`, the row read as
a base-k number) among the keys of its relation's sorted rows.  Existential
columns that no remaining atom mentions are then dropped and repeated rows
removed.  Any table that would exceed EVAL_TABLE_BYTES, including the
extensions by unconstrained free variables, raises CapExceeded before it is
built.
"""
from __future__ import annotations

from dataclasses import dataclass
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


def _holds(keys: np.ndarray, table: np.ndarray, cols: list[int], k: int) -> np.ndarray:
    """Mask of the table rows whose entries in cols form one of the sorted keys.

    Rows are looked up in blocks, so the temporaries stay small next to the
    table.
    """
    mask = np.empty(len(table), dtype=bool)
    for start in range(0, len(table), FILTER_BLOCK_ROWS):
        probe = _row_keys(table[start:start + FILTER_BLOCK_ROWS, cols], k)
        mask[start:start + len(probe)] = _isin_sorted(keys, probe)
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


def eval_formula(formula: PPFormula, env: RelationEnv | Mapping[str, Relation]) -> Relation:
    """The relation defined by the formula: projection of the satisfying set.

    Of several pinned variables the one with the fewest values per bound
    prefix comes next, ties in the default order.  Raises CapExceeded,
    before the table is extended, when the extended table of partial
    assignments would exceed EVAL_TABLE_BYTES.
    """
    if not isinstance(env, RelationEnv):
        env = RelationEnv(env)
    if env.domain != formula.domain:
        raise ValueError("formula and environment domains differ")
    k = formula.domain.k
    dtype = _row_dtype(k)
    keys: dict[str, np.ndarray] = {}    # the relations' row keys, made on first use
    pin_bound = {name: _pin_bound(len(rel), k) for name, rel in env.items()}
    pending = []
    for rel_name, vars_ in formula.atoms:
        if rel_name not in env:
            raise ValueError(f"missing relation '{rel_name}' in the environment")
        rel = env[rel_name]
        if rel.arity != len(vars_):
            raise ValueError(
                f"atom over '{rel_name}' has {len(vars_)} variables, "
                f"relation arity is {rel.arity}")
        pending.append((rel, vars_, rel_name, pin_bound[rel_name]))
    used = dict.fromkeys(v for _, vars_ in formula.atoms for v in vars_)
    # free variables in some atom, then existential ones, then the other free ones
    order = list(dict.fromkeys([v for v in formula.free_vars if v in used] + list(used)
                               + list(formula.free_vars)))
    rank = {v: i for i, v in enumerate(order)}
    # one row per partial assignment of the variables in cols
    table = np.zeros((1, 0), dtype=dtype)
    cols: list[str] = []
    added: set[str] = set()
    looked_up = None        # the atom whose lookup added the last variable
    while True:
        index = {v: i for i, v in enumerate(cols)}
        waiting = []
        pin, pin_key = None, None
        for atom in pending:
            rel, vars_, rel_name, min_bound = atom
            missing = {v for v in vars_ if v not in index}
            if not missing:
                # a lookup only adds rows that satisfy its atom
                if atom is not looked_up:
                    if rel_name not in keys:
                        keys[rel_name] = _row_keys(rel.rows, k)
                    table = table[_holds(keys[rel_name], table, [index[v] for v in vars_], k)]
                continue
            waiting.append(atom)
            if len(missing) == 1:
                var = next(iter(missing))
                bound = len(vars_) - vars_.count(var)
                if bound < min_bound:
                    continue
                key = (len(rel) / k ** bound, rank[var])
                if pin is None or key < pin_key:
                    pin, pin_key = (atom, var), key
        pending = waiting
        needed = set(formula.free_vars).union(*(atom[1] for atom in pending))
        keep = [i for i, v in enumerate(cols) if v in needed]
        if len(keep) < len(cols):
            cols = [cols[i] for i in keep]
            table = _unique_rows(table[:, keep], k) if keep else table[:1, :0]
            index = {v: i for i, v in enumerate(cols)}
        if len(added) == len(order):
            break
        count, width = table.shape
        looked_up = None
        if pin is None:
            var = next(v for v in order if v not in added)
        else:
            atom, var = pin
            rel, vars_ = atom[:2]
            if count * k > len(rel):
                looked_up = atom
                table = _extend_by_lookup(table, [index[v] for v in vars_ if v != var],
                                          _lookup_keys(rel.rows, vars_, var, k), k)
        if looked_up is None:
            _check_table_size(count * k, width + 1, table.itemsize)
            grown = np.empty((count, k, width + 1), dtype=dtype)
            grown[:, :, :width] = table[:, None, :]
            grown[:, :, width] = np.arange(k, dtype=dtype)
            table = grown.reshape(count * k, width + 1)
        cols.append(var)
        added.add(var)
    alpha = formula.alpha or range(1, len(formula.free_vars) + 1)
    columns = [cols.index(formula.free_vars[a - 1]) for a in alpha]
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
