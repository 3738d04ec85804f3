"""Primitive positive definitions of a relation from a generating system.

Given relations Q = {rho_1..rho_t} and a generating system gamma_0 of a
relation rho_0 invariant under Pol(Q), every selection of n = |gamma_0|
tuples of a relation contributes one atom, over the rows of the selected
submatrix.  A row equal to a row of the gamma_0 matrix gets that row's free
variable, a fresh row gets the next existential variable.  The rows of all
selections of a relation are keyed at once (`core._row_keys`), and the
existentials are numbered by first appearance, selection by selection in
lexicographic order and relation by relation.  Distinct selections give
distinct atoms, so no atom repeats.  By construction the resulting formula
is satisfied by every tuple of the closure of gamma_0; it defines rho_0
exactly when gamma_0 generates rho_0 under Pol(Q), which validate_synthesis
checks rather than assumes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import (CapExceeded, Domain, Relation, _digit_matrix, _isin_sorted, _row_dtype,
                   _row_keys)
from .ppformula import PPFormula, RelationEnv, eval_formula

ROW_BUDGET = 100_000_000


@dataclass(frozen=True)
class GeneratingSystem:
    domain: Domain
    gamma0: tuple[tuple[int, ...], ...]   # the generating tuples, in order
    rows: tuple[tuple[int, ...], ...]     # matrix rows v_1..v_{m0}
    iota: dict                            # distinct row -> 1-based transversal index
    alpha: tuple[int, ...]                # alpha[j] = iota[rows[j]]

    @property
    def m0(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.gamma0)

    @property
    def m_prime(self) -> int:
        return len(self.iota)


def dedup_rows(gamma0_raw, domain: Domain) -> GeneratingSystem:
    """Build the transversal of distinct matrix rows, in order of first appearance."""
    # duplicate generators carry no information
    gamma0 = list(dict.fromkeys(tuple(t) for t in gamma0_raw))
    if not gamma0:
        raise ValueError("the generating system must be nonempty")
    m0 = len(gamma0[0])
    Relation(domain, m0, gamma0)    # checks the lengths and entries
    rows = tuple(tuple(t[j] for t in gamma0) for j in range(m0))
    iota: dict[tuple[int, ...], int] = {}
    alpha = []
    for v in rows:
        if v not in iota:
            iota[v] = len(iota) + 1
        alpha.append(iota[v])
    return GeneratingSystem(domain, tuple(gamma0), rows, iota, tuple(alpha))


@dataclass
class SynthesisResult:
    formula: PPFormula
    row_count: int                 # L = sum over relations of s^n * m
    atom_counts: dict              # relation name -> atoms kept after dedup
    exist_count: int               # q, the number of existential variables
    free_count: int                # m', distinct rows of gamma_0
    unseen_rows: int               # p, gamma rows never met among submatrix rows

    def stats_line(self) -> str:
        total = sum(self.atom_counts.values())
        return f"# L={self.row_count} atoms={total} exists={self.exist_count}"


def synthesize_ppdef(env: RelationEnv, gen: GeneratingSystem,
                     row_budget: int = ROW_BUDGET) -> SynthesisResult:
    """Assemble the defining formula; deterministic in the environment order.

    A row_budget below 1 is rejected (ValueError) before any work.
    """
    if row_budget < 1:
        raise ValueError(f"the row budget must be at least 1, got {row_budget}")
    if not isinstance(env, RelationEnv):
        env = RelationEnv(env)
    if env.domain != gen.domain:
        raise ValueError("relations and generating system domains differ")
    n = gen.n
    row_count = sum(len(rel) ** n * rel.arity for rel in env.values())
    if row_count > row_budget:
        raise CapExceeded(f"L = {row_count} rows exceed the budget of {row_budget}")

    k, m_prime = gen.domain.k, gen.m_prime
    names = [f"x{i}" for i in range(1, m_prime + 1)]     # the i-th gamma row's symbol
    # the submatrix rows named so far, by sorted key, and their names' places
    known = _row_keys(np.array(list(gen.iota), dtype=_row_dtype(k)), k)
    symbols = np.argsort(known)
    known = known[symbols]
    met = np.zeros(m_prime, dtype=bool)     # the gamma rows met
    exist_count = 0
    atoms = []
    atom_counts = {}
    for name, rel in env.items():
        # selection s takes the tuples numbered by the base-len(rel) digits
        # of s; row z of its submatrix, their z-th entries, is keyed at
        # s * arity + z
        sel = _digit_matrix(n, len(rel), np.min_scalar_type(max(len(rel) - 1, 0)))
        sub_rows = rel.rows.T[:, sel].reshape(rel.arity * len(sel), n)
        keys = _row_keys(sub_rows, k).reshape(rel.arity, len(sel)).T.ravel()
        # the keys not named before get the next existentials, in order of
        # first appearance: the first of each run of equal keys in a stable sort
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        first &= ~_isin_sorted(known, ordered)
        fresh = ordered[first][np.argsort(order[first])]
        known = np.concatenate([known, fresh])
        symbols = np.concatenate([symbols, len(names) + np.arange(len(fresh))])
        names += [f"y{exist_count + j}" for j in range(1, len(fresh) + 1)]
        exist_count += len(fresh)
        by_key = np.argsort(known)
        known, symbols = known[by_key], symbols[by_key]
        named = symbols[np.searchsorted(known, keys)].reshape(len(sel), rel.arity)
        met[named[named < m_prime]] = True
        # distinct selections give distinct atoms: the tuples of rel are
        # distinct, and so are the symbols of distinct submatrix rows
        words = [map(names.__getitem__, col) for col in named.T.tolist()]
        atoms.extend(zip(repeat(name), zip(*words)))
        atom_counts[name] = len(sel)

    free, exist = tuple(names[:m_prime]), tuple(names[m_prime:])
    formula = PPFormula(gen.domain, free, exist, tuple(atoms), gen.alpha)
    unseen = m_prime - int(met.sum())
    return SynthesisResult(formula, row_count, atom_counts, exist_count,
                           gen.m_prime, unseen)


def validation_details(result: SynthesisResult, env, rho0: Relation):
    """(defines, extra tuples, missing tuples) of the formula against rho0."""
    defined = eval_formula(result.formula, env)
    if defined.arity != rho0.arity:
        raise ValueError(f"formula output arity {defined.arity} differs from "
                         f"goal arity {rho0.arity}")
    extra = tuple(sorted(set(defined.tuples) - set(rho0.tuples)))
    missing = tuple(sorted(set(rho0.tuples) - set(defined.tuples)))
    return (not extra and not missing), extra, missing


def validate_synthesis(result: SynthesisResult, env, rho0: Relation) -> bool:
    ok, _, _ = validation_details(result, env, rho0)
    return ok
