import random
from itertools import product

import pytest

import cloneops.ppformula as ppformula
from cloneops import (Domain, PPFormula, RelationEnv, emit_smt, emit_text,
                      eval_formula, formula_defines, full_relation, graph_of,
                      make_projection, parse_formula, relation, snow_f,
                      snow_pp_formula, snow_t)


def brute_eval(formula, env):
    names = list(formula.free_vars) + list(formula.exist_vars)
    sat = set()
    k = formula.domain.k
    for vals in product(range(k), repeat=len(names)):
        a = dict(zip(names, vals))
        if all(tuple(a[v] for v in vs) in env[rn] for rn, vs in formula.atoms):
            free = [a[v] for v in formula.free_vars]
            if formula.alpha is not None:
                free = [free[i - 1] for i in formula.alpha]
            sat.add(tuple(free))
    return sat


def random_instance(rng):
    k = rng.choice([2, 3])
    dom = Domain(k)
    nvars = rng.randint(2, 6)
    names = [f"v{i}" for i in range(nvars)]
    nfree = rng.randint(1, nvars)
    env = {}
    atoms = []
    for a in range(rng.randint(0, 4)):
        ar = rng.randint(1, min(3, nvars))
        tuples = rng.sample(list(product(range(k), repeat=ar)),
                            rng.randint(0, k ** ar))
        env[f"R{a}"] = relation(dom, ar, tuples)
        atoms.append((f"R{a}", tuple(rng.choices(names, k=ar))))
    if not env:
        env["D"] = full_relation(dom, 1)
    formula = PPFormula(dom, tuple(names[:nfree]), tuple(names[nfree:]),
                        tuple(atoms))
    return formula, env


def test_zero_atom_formula_gives_full_power(d3):
    phi = PPFormula(d3, ("a", "b"), (), ())
    assert eval_formula(phi, {"D": full_relation(d3, 1)}) == full_relation(d3, 2)


def test_single_graph_atom_gives_diagonal(d3):
    ident = graph_of(make_projection(d3, 1, 1))
    phi = PPFormula(d3, ("a", "b"), (), (("R", ("a", "b")),))
    assert eval_formula(phi, {"R": ident}).tuples == ((0, 0), (1, 1), (2, 2))


def test_snow_formula_defines_graph(t3, f3):
    phi = snow_pp_formula(3)
    env = {"T": graph_of(t3)}
    assert eval_formula(phi, env) == graph_of(f3)
    assert formula_defines(phi, env, graph_of(f3))
    assert not formula_defines(phi, env, graph_of(make_projection(Domain(3), 2, 1)))


def test_functional_map_built_once_per_relation(t3, f3, monkeypatch):
    built = []
    functional_map = ppformula._functional_map
    monkeypatch.setattr(ppformula, "_functional_map",
                        lambda rel: built.append(rel) or functional_map(rel))
    phi = snow_pp_formula(3)
    assert len(phi.atoms) == 5
    assert eval_formula(phi, {"T": graph_of(t3)}) == graph_of(f3)
    assert len(built) == 1


def test_eval_matches_brute_force():
    rng = random.Random(99)
    for _ in range(80):
        formula, env = random_instance(rng)
        assert set(eval_formula(formula, env).tuples) == brute_eval(formula, env)


def test_adding_an_atom_never_enlarges():
    rng = random.Random(100)
    for _ in range(30):
        formula, env = random_instance(rng)
        if not formula.atoms:
            continue
        smaller = PPFormula(formula.domain, formula.free_vars,
                            formula.exist_vars, formula.atoms[:-1])
        bigger_set = set(eval_formula(smaller, env).tuples)
        assert set(eval_formula(formula, env).tuples) <= bigger_set


def test_alpha_expansion_matches_postprocessing(d3, t3):
    base = PPFormula(d3, ("a", "b"), ("c",), (("T", ("a", "b", "a", "b", "c")),))
    with_alpha = PPFormula(d3, ("a", "b"), ("c",),
                           (("T", ("a", "b", "a", "b", "c")),), alpha=(1, 2, 1))
    env = {"T": graph_of(t3)}
    plain = eval_formula(base, env)
    expanded = {(t[0], t[1], t[0]) for t in plain.tuples}
    assert set(eval_formula(with_alpha, env).tuples) == expanded


def test_unconstrained_free_variable_ranges_over_domain(d3, t3):
    phi = PPFormula(d3, ("a", "spare"), (),
                    (("Im", ("a",)),))
    env = {"Im": relation(d3, 1, [(0,), (1,)])}
    got = eval_formula(phi, env)
    assert set(got.tuples) == {(a, s) for a in (0, 1) for s in range(3)}
    assert phi.unconstrained_free == ("spare",)


def test_round_trip_through_text():
    rng = random.Random(101)
    for _ in range(25):
        formula, env = random_instance(rng)
        parsed = parse_formula(emit_text(formula))
        assert parsed == formula
        assert eval_formula(parsed, env) == eval_formula(formula, env)


def test_validation_errors(d3):
    with pytest.raises(ValueError):
        PPFormula(d3, (), (), ())
    with pytest.raises(ValueError):
        PPFormula(d3, ("a", "a"), (), ())
    with pytest.raises(ValueError):
        PPFormula(d3, ("a",), (), (("R", ("b",)),))
    with pytest.raises(ValueError):
        PPFormula(d3, ("a",), (), (), alpha=(2,))


def test_eval_errors(d3):
    phi = PPFormula(d3, ("a",), (), (("R", ("a",)),))
    with pytest.raises(ValueError):
        eval_formula(phi, {"S": full_relation(d3, 1)})
    with pytest.raises(ValueError):
        eval_formula(phi, {"R": full_relation(d3, 2)})  # arity mismatch
    with pytest.raises(ValueError):
        eval_formula(phi, {"R": full_relation(Domain(2), 1)})  # wrong domain


def test_relation_env_validation(d3):
    with pytest.raises(ValueError):
        RelationEnv([])
    with pytest.raises(ValueError):
        RelationEnv([("a", full_relation(d3, 1)), ("a", full_relation(d3, 2))])
    with pytest.raises(ValueError):
        RelationEnv([("a", full_relation(d3, 1)),
                     ("b", full_relation(Domain(2), 1))])


def test_smt_structure_and_determinism(t3, f3):
    phi = snow_pp_formula(3)
    env = {"T": graph_of(t3)}
    script = emit_smt(phi, env, graph_of(f3))
    assert script == emit_smt(phi, env, graph_of(f3))
    assert script.count("(declare-const") == len(phi.free_vars)
    assert "(define-fun val_T" in script      # graph encoded as a value function
    assert "(define-fun mem_goal" in script
    assert script.count("(mem_T") == 5
    assert script.rstrip().endswith("(check-sat)")
    assert "(exists ((x11 Int)" in script


def test_equality_atoms(d3):
    from cloneops import equality_relation
    phi = PPFormula(d3, ("a", "b"), (), (("=", ("a", "b")),))
    env = {"=": equality_relation(d3)}
    assert eval_formula(phi, env).tuples == ((0, 0), (1, 1), (2, 2))
    script = emit_smt(phi, env, equality_relation(d3))
    assert "(mem_eq" in script and "mem_=" not in script


def test_smt_empty_formula_reduces_to_goal_complement(d3):
    phi = PPFormula(d3, ("a",), (), ())
    goal = relation(d3, 1, [(0,), (1,)])
    script = emit_smt(phi, {"D": full_relation(d3, 1)}, goal)
    assert "(xor true (mem_goal a))" in script
