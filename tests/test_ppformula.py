import pickle
import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cloneops.ppformula as ppformula
from cloneops import (CapExceeded, Domain, Operation, PPFormula, RelationEnv,
                      emit_relations, emit_smt, emit_text, eval_formula,
                      formula_defines, full_relation, graph_of, make_projection,
                      parse_formula, parse_relations, relation, snow_f,
                      snow_pp_formula, snow_t)
from cloneops.cli import run
from cloneops.core import _key_width, _row_dtype, _row_keys


def brute_eval(formula, env, values=None):
    """The satisfying set, by trying every assignment of the values (the
    domain by default) to the variables."""
    names = list(formula.free_vars) + list(formula.exist_vars)
    sat = set()
    k = formula.domain.k
    for vals in product(range(k) if values is None else values, repeat=len(names)):
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


def test_relation_rows_are_not_resorted(t3, f3, monkeypatch):
    sorted_tables = []
    unique_rows = ppformula._unique_rows
    monkeypatch.setattr(ppformula, "_unique_rows",
                        lambda rows, k: sorted_tables.append(rows.copy()) or unique_rows(rows, k))
    phi = snow_pp_formula(3)
    assert len(phi.atoms) == 5
    graph_t = graph_of(t3)
    assert eval_formula(phi, {"T": graph_t}) == graph_of(f3)
    assert not any(np.array_equal(rows, graph_t.rows) for rows in sorted_tables)


@st.composite
def pp_instances(draw):
    """Random formulas at k = 2, 3: repeated variables in one atom, empty
    relations, graphs of random operations, zero atoms, alpha maps and
    unconstrained free variables."""
    k = draw(st.sampled_from([2, 3]))
    dom = Domain(k)
    names = [f"v{i}" for i in range(draw(st.integers(1, 6)))]
    nfree = draw(st.integers(1, len(names)))
    # the variables that atoms may use; free ones left out are unconstrained
    used = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    env = {}
    atoms = []
    for a in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            # the graph of a random operation: one value per argument tuple
            n = draw(st.integers(1, 2))
            table = draw(st.lists(st.integers(0, k - 1), min_size=k ** n, max_size=k ** n))
            env[f"R{a}"] = graph_of(Operation(dom, n, tuple(table)))
            ar = n + 1
        else:
            ar = draw(st.integers(1, 3))
            points = list(product(range(k), repeat=ar))
            tuples = draw(st.lists(st.sampled_from(points), max_size=len(points)))
            env[f"R{a}"] = relation(dom, ar, tuples)
        atoms.append((f"R{a}", tuple(draw(st.lists(st.sampled_from(used),
                                                   min_size=ar, max_size=ar)))))
    if not env:
        env["D"] = full_relation(dom, 1)
    alpha = draw(st.none() | st.lists(st.integers(1, nfree), min_size=1, max_size=4))
    formula = PPFormula(dom, tuple(names[:nfree]), tuple(names[nfree:]), tuple(atoms),
                        None if alpha is None else tuple(alpha))
    return formula, env


def _lookup_spy(monkeypatch):
    """Record table, probe columns and extended table of every lookup."""
    calls = []
    extend = ppformula._extend_by_lookup

    def spy(table, probe, index, k, counts=None):
        grown = extend(table, probe, index, k, counts)
        calls.append((table, probe, grown))
        return grown
    monkeypatch.setattr(ppformula, "_extend_by_lookup", spy)
    return calls


@st.composite
def _index_cases(draw):
    """A relation of some width over k values, on either side of the bitmap
    density rule (k=300 at width 8: void keys), and a table to test its
    atoms against and to extend by looking up a prefix of its rows."""
    k, width = draw(st.sampled_from([(2, 1), (2, 3), (3, 2), (3, 3), (300, 1), (300, 2),
                                     (300, 8)]))
    values = st.sampled_from([0, 1, k - 1]) if k == 300 else st.integers(0, k - 1)
    row = st.tuples(*[values] * width)
    rows = sorted(draw(st.sets(row, max_size=min(k ** width, 40))))
    if rows and draw(st.booleans()):
        rows = sorted(set(rows) | {r[:-1] + (v,) for r in rows for v in range(k)})
    table_width = draw(st.integers(max(width - 1, 1), width + 2))
    table = draw(st.lists(st.tuples(*[values] * table_width), max_size=30))
    cols = draw(st.lists(st.lists(st.integers(0, table_width - 1), min_size=width,
                                  max_size=width), min_size=1, max_size=3))
    probe = draw(st.lists(st.integers(0, table_width - 1), min_size=width - 1,
                          max_size=width - 1))
    return k, rows, np.array(table, dtype=_row_dtype(k)).reshape(-1, table_width), cols, probe


@settings(max_examples=150, deadline=None)
@given(_index_cases())
def test_bitmap_and_sorted_index_agree(case):
    k, rows, table, cols, probe = case
    width = len(cols[0])
    dtype = _row_dtype(k)
    arr = np.array(rows, dtype=dtype).reshape(len(rows), width)
    present = set(rows)
    holds = [all(tuple(int(v) for v in r[c]) in present for c in cols) for r in table]
    grown = [list(r) + [v] for r in table.tolist() for v in range(k)
             if tuple(r[c] for c in probe) + (v,) in present]
    kinds = set()
    # the rule as it is, then every index sorted, then every integer-keyed one a bitmap
    for per_row in [ppformula.BITMAP_KEYS_PER_ROW, 0, k ** width]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ppformula, "BITMAP_KEYS_PER_ROW", per_row)
            index = ppformula._Index(_row_keys(arr, k), k, width, True)
        kinds.add(index.present is not None)
        got = ppformula._holds(index, table, np.array(cols), k)
        assert got.tolist() == holds
        assert ppformula._extend_by_lookup(table, probe, index, k).tolist() == grown
    assert kinds == ({False, True} if rows and _row_keys(arr, k).dtype.kind == "u"
                     else {False})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_permuted_index_from_identity_bitmap_equals_index_from_rows(data):
    k = data.draw(st.integers(2, 4))
    arity = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, k - 1)] * arity), min_size=1,
                              max_size=40))
    rel = relation(Domain(k), arity, rows)
    order = tuple(data.draw(st.permutations(range(arity))))
    no_atoms = np.zeros((0, arity), dtype=np.uint8), np.zeros(0, dtype=np.uint8)
    from_rows = ppformula._Atoms(rel, *no_atoms, k).index(order, k)
    derived = ppformula._Atoms(rel, *no_atoms, k)
    identity = derived.index(tuple(range(arity)), k)
    with pytest.MonkeyPatch.context() as mp:
        if identity.present is not None:
            # derived from the bitmap alone, without reading a row
            mp.setattr(ppformula, "_row_keys", None)
        index = derived.index(order, k)
    assert (index.present is None) == (from_rows.present is None)
    if index.present is None:
        assert np.array_equal(index.keys, from_rows.keys)
    else:
        assert index.present.flags.c_contiguous
        assert np.array_equal(index.present, from_rows.present)
        prefixes = np.array(rows, dtype=_row_dtype(k))[:, :arity - 1]
        assert all(np.array_equal(a, b) for a, b in zip(index.find(prefixes),
                                                        from_rows.find(prefixes)))


def _chain(k):
    """∃b S(a, b) ∧ S(b, c) over the successor relation of Z/k."""
    dom = Domain(k)
    succ = relation(dom, 2, [(x, (x + 1) % k) for x in range(k)])
    phi = PPFormula(dom, ("a", "c"), ("b",), (("S", ("a", "b")), ("S", ("b", "c"))))
    return phi, {"S": succ}


@settings(max_examples=300, deadline=None)
@given(pp_instances())
@example(_chain(3))
def _eval_matches_brute_force(instance):
    formula, env = instance
    assert set(eval_formula(formula, env).tuples) == brute_eval(formula, env)


def test_eval_matches_brute_force_property():
    with pytest.MonkeyPatch.context() as mp:
        calls = _lookup_spy(mp)
        _eval_matches_brute_force()
    assert calls, "no example extended its table by lookup"


@st.composite
def _grid_instances(draw):
    """Formulas whose variables come in runs that no completed atom covers
    (atoms of up to 4 distinct variables), with free variables in no atom
    and alpha maps with repeats, at k = 2, 3; or, at k = 300, with an
    atom of 8 entries, keyed by its bytes, over the alphabet {0, 1, 299}.
    Each relation holds a few random rows and maybe its atoms' rows under
    a planted assignment; returned with the alphabet for brute_eval."""
    k = draw(st.sampled_from([2, 3, 300]))
    dom = Domain(k)
    alphabet = [0, 1, 299] if k == 300 else list(range(k))
    # at k = 300 two variables, so that a grid has at most 300 cells
    names = [f"v{i}" for i in range(2 if k == 300 else draw(st.integers(2, 5)))]
    value = st.sampled_from(alphabet)
    planted = {v: draw(value) for v in names}
    env, atoms = {}, []
    for a in range(draw(st.integers(1, 3))):
        arity = 8 if k == 300 and not a else draw(st.integers(2, 4))
        vars_ = tuple(draw(st.lists(st.sampled_from(names), min_size=arity, max_size=arity)))
        rows = draw(st.sets(st.tuples(*[value] * arity), max_size=6))
        if arity == 8:
            # over 300 rows: the atom pins no variable while none is bound
            rng = random.Random(draw(st.integers(0, 1 << 16)))
            rows |= set(rng.sample(list(product(alphabet, repeat=8)), 300))
        if draw(st.booleans()):
            rows.add(tuple(planted[v] for v in vars_))
        env[f"R{a}"] = relation(dom, arity, rows)
        atoms.append((f"R{a}", vars_))
    used = [v for v in names if any(v in vars_ for _, vars_ in atoms)]
    free = draw(st.lists(st.sampled_from(used), min_size=1, unique=True))
    if k < 300:
        # free variables in no atom range over all k values
        free += [f"w{i}" for i in range(draw(st.integers(0, 2)))]
    alpha = draw(st.none() | st.lists(st.integers(1, len(free)), min_size=1, max_size=5))
    formula = PPFormula(dom, tuple(free), tuple(v for v in names if v not in free),
                        tuple(atoms), None if alpha is None else tuple(alpha))
    return formula, env, alphabet


@settings(max_examples=200, deadline=None)
@given(_grid_instances())
def _grid_eval_matches_brute_force(instance):
    formula, env, alphabet = instance
    assert set(eval_formula(formula, env).tuples) == brute_eval(formula, env, alphabet)


def test_grid_eval_matches_brute_force_property(monkeypatch):
    # with 7 cells per block, a grid spans several blocks of base rows
    monkeypatch.setattr(ppformula, "FILTER_BLOCK_ROWS", 7)
    grids = []
    step = ppformula._grid_step

    def spy(table, j, filters, keep, k):
        grids.append((len(table) * k ** j, j, k,
                      any(cols.shape[1] > _key_width(k) for _, cols in filters)))
        return step(table, j, filters, keep, k)
    monkeypatch.setattr(ppformula, "_grid_step", spy)
    _grid_eval_matches_brute_force()
    # grids of two or more all-value columns over several blocks were
    # filtered, some by atoms keyed by their bytes
    assert any(cells > 7 and j >= 2 for cells, j, _, _ in grids)
    assert any(k == 300 and wide for _, _, k, wide in grids)


@settings(max_examples=200, deadline=None)
@given(pp_instances())
def test_formula_text_round_trip_property(instance):
    formula, _ = instance
    assert parse_formula(emit_text(formula)) == formula


def test_eval_after_every_column_is_dropped():
    # v1 is projected away before v2 is added, leaving no column at all
    d3 = Domain(3)
    phi = PPFormula(d3, ("v0",), ("v1", "v2"),
                    (("R0", ("v1", "v1")), ("R1", ("v2",))))
    env = {"R0": relation(d3, 2, [(1, 1)]), "R1": relation(d3, 1, [(0,)])}
    assert set(eval_formula(phi, env).tuples) == brute_eval(phi, env) == {
        (0,), (1,), (2,)}


def test_eval_beyond_uint8_domain():
    dom = Domain(300)
    succ = relation(dom, 2, [(x, (x + 1) % 300) for x in range(300)])
    inverse = PPFormula(dom, ("a", "b"), (), (("S", ("b", "a")),))
    got = eval_formula(inverse, {"S": succ})
    assert got.tuples == tuple(sorted(((x + 1) % 300, x) for x in range(300)))
    assert set(got.tuples) == brute_eval(inverse, {"S": succ})
    fixed = PPFormula(dom, ("a", "b"), (), (("S", ("a", "a")),))
    assert eval_formula(fixed, {"S": succ}).tuples == ()


def test_eval_chain_through_existential():
    # b and c are read off S: no table exceeds 300 rows, where extending
    # by a and c before b would take 300^3
    phi, env = _chain(300)
    got = eval_formula(phi, env)
    assert got.tuples == tuple(sorted((x, (x + 2) % 300) for x in range(300)))


def test_eval_formula_chain_from_cli(tmp_path):
    phi, env = _chain(300)
    (tmp_path / "chain.pp").write_text(emit_text(phi), encoding="utf-8")
    (tmp_path / "succ.rel").write_text(emit_relations(env.items()), encoding="utf-8")
    out = tmp_path / "out.rel"
    assert run(["eval-formula", "--formula", str(tmp_path / "chain.pp"),
                "--relations", str(tmp_path / "succ.rel"), "--out", str(out)]) == 0
    [(_, got)] = parse_relations(out.read_text(encoding="utf-8"))
    assert got == eval_formula(phi, env) and len(got) == 300


def test_lookup_without_bound_position(d3, monkeypatch):
    # U pins a and b with no other position: each lookup gives every row
    # both values of U
    calls = _lookup_spy(monkeypatch)
    phi = PPFormula(d3, ("a", "b"), (), (("U", ("a",)), ("U", ("b",))))
    env = {"U": relation(d3, 1, [(0,), (2,)])}
    assert eval_formula(phi, env).tuples == ((0, 0), (0, 2), (2, 0), (2, 2))
    assert [probe for _, probe, _ in calls] == [[], []]
    empty = {"U": relation(d3, 1, [])}
    assert eval_formula(phi, empty).tuples == ()


def test_lookup_of_repeated_variable(d3, monkeypatch):
    # R(a, v, v) reads only the rows whose last two entries agree, so no
    # row is repeated: (0, 1) once, not once per row (0, 1, *)
    calls = _lookup_spy(monkeypatch)
    phi = PPFormula(d3, ("a", "v"), (), (("R", ("a", "v", "v")),))
    env = {"R": relation(d3, 3, [(0, 1, 1), (0, 1, 2), (0, 2, 2), (1, 2, 0), (2, 0, 0)])}
    got = eval_formula(phi, env)
    assert got.tuples == ((0, 1), (0, 2), (2, 0))
    assert set(got.tuples) == brute_eval(phi, env)
    [(table, probe, grown)] = calls
    assert len(table) == 3 and probe == [0]
    assert grown.tolist() == [[0, 1], [0, 2], [2, 0]]


def test_lookup_in_empty_relation(d3, monkeypatch):
    calls = _lookup_spy(monkeypatch)
    phi = PPFormula(d3, ("a",), ("v",), (("R", ("a", "v")),))
    assert eval_formula(phi, {"R": relation(d3, 2, [])}).tuples == ()
    assert len(calls) == 1


def test_lookup_of_several_values_per_prefix(d3, monkeypatch):
    # v has 3, 1 and 2 values after a = 0, 1, 2, read off R in the order
    # (v, a) after an existential w
    calls = _lookup_spy(monkeypatch)
    r = relation(d3, 2, [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2), (2, 2)])
    phi = PPFormula(d3, ("a", "w"), ("v",), (("R", ("v", "a")), ("E", ("v", "w"))))
    env = {"R": r, "E": relation(d3, 2, [(x, x) for x in range(3)])}
    got = eval_formula(phi, env)
    assert set(got.tuples) == brute_eval(phi, env) == {
        (0, 0), (0, 1), (0, 2), (1, 1), (2, 0), (2, 2)}
    assert len(calls) == 2 and calls[0][1] == [0]


def test_lookup_beyond_uint8_domain(monkeypatch):
    # S read backwards: the lookup sorts S's rows by the second column
    # (big-endian entries at k=300)
    calls = _lookup_spy(monkeypatch)
    phi, env = _chain(300)
    assert len(eval_formula(phi, env)) == 300
    assert [len(grown) for _, _, grown in calls] == [300, 300]
    calls.clear()
    backwards = PPFormula(phi.domain, ("a", "c"), ("b",),
                          (("S", ("b", "a")), ("S", ("c", "b"))))
    assert eval_formula(backwards, env).tuples == tuple(
        sorted((x, (x - 2) % 300) for x in range(300)))
    assert len(calls) == 2


@pytest.mark.parametrize("k", [3, 300])
def test_lookup_of_rows_ending_in_the_last_value(k, monkeypatch):
    # R's rows after a = 0 end in k-1, next to the rows after a = 1: the
    # rows after a prefix end at (prefix, k-1), and a larger last entry
    # would carry into the next prefix
    calls = _lookup_spy(monkeypatch)
    dom = Domain(k)
    env = {"A": relation(dom, 1, [(0,), (1,)]),
           "R": relation(dom, 2, [(0, k - 1), (1, 0), (1, k - 1), (2, 0)])}
    phi = PPFormula(dom, ("a", "v"), (), (("A", ("a",)), ("R", ("a", "v"))))
    assert eval_formula(phi, env).tuples == ((0, k - 1), (1, 0), (1, k - 1))
    assert [(probe, grown.tolist()) for _, probe, grown in calls] == [
        ([], [[0], [1]]), ([0], [[0, k - 1], [1, 0], [1, k - 1]])]


def test_eval_snow_k4_peak_memory():
    graph_t = graph_of(snow_t(4))
    tracemalloc.start()
    try:
        got = eval_formula(snow_pp_formula(4), {"T": graph_t})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == 64
    # the last step's 64 x 4^6 grid is filtered a block of cells at a
    # time: neither its 262,144 x 11 table nor its extension is ever built
    # (3.9 MiB here, 6.6 MiB when the table was built)
    assert peak < 4.2 * 2 ** 20


def test_eval_unconstrained_free_vars_peak_memory():
    # a, b, c are in no atom: the result is x's 4 values times the 64^3
    # fillings of the grid, written out at the end with no per-cell index
    # arrays (3.0 times its rows here, 9.0 with them)
    k = 64
    phi = PPFormula(Domain(k), ("x", "a", "b", "c"), (), (("U", ("x",)),))
    env = {"U": relation(Domain(k), 1, [(3,), (7,), (9,), (11,)])}
    tracemalloc.start()
    try:
        got = eval_formula(phi, env)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == 4 * k ** 3
    assert peak < 3.5 * got.rows.nbytes


def test_eval_cap_raises_before_allocating():
    d3 = Domain(3)
    names = tuple(f"x{i}" for i in range(25))
    phi = PPFormula(d3, names[:1], names[1:], (("R", names),))
    env = {"R": relation(d3, 25, [(0,) * 25])}
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="over the cap"):
            eval_formula(phi, env)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the largest table made fits the cap; the next one, 3 * 15/14 times
    # larger, is never allocated
    assert peak < 2 * ppformula.EVAL_TABLE_BYTES


def test_lookup_cap_raises_before_any_block(monkeypatch):
    # x0..x3 take 16^4 rows; U pins v after x1..x3, 15 values for each, and
    # that extension (983,040 rows of 5 entries, where extending by all 16
    # values would take 1,048,576) is refused before any block is looked up
    dom = Domain(16)
    env = {"D": full_relation(dom, 1),
           "U": relation(dom, 4, [t for t in product(range(16), repeat=4) if t[3]])}
    phi = PPFormula(dom, ("x0", "x1", "x2", "x3", "v"), (),
                    (("D", ("x0",)), ("D", ("x1",)), ("D", ("x2",)), ("D", ("x3",)),
                     ("U", ("x1", "x2", "x3", "v"))))
    cap = 1 << 20
    monkeypatch.setattr(ppformula, "EVAL_TABLE_BYTES", cap)
    calls = _lookup_spy(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="table of 983040 partial assignments to 5 "):
            eval_formula(phi, env)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not calls
    assert peak < 2 * cap


def test_pickled_env_keys_its_rows_as_a_fresh_one():
    # numpy gives back the big-endian rows of k=300 in native byte order;
    # the 8-entry rows of R are keyed by their bytes
    dom = Domain(300)
    env = RelationEnv({"A": relation(dom, 1, [(255,), (256,), (0,)]),
                       "R": relation(dom, 8, [(255,) * 7 + (256,), (0,) * 7 + (1,),
                                              (256,) * 7 + (255,)])})
    phi = PPFormula(dom, ("a", "b"), (), (("A", ("a",)), ("R", ("a",) * 7 + ("b",))))
    fresh = eval_formula(phi, env)
    assert fresh.tuples == ((0, 1), (255, 256), (256, 255))
    assert eval_formula(phi, pickle.loads(pickle.dumps(env))) == fresh


def test_eval_matches_brute_force():
    rng = random.Random(99)
    for _ in range(80):
        formula, env = random_instance(rng)
        assert set(eval_formula(formula, env).tuples) == brute_eval(formula, env)


def _planted_instance(rng, k, arities, atom_count, nvars, alphabet):
    """atom_count atoms over relations of the given arities, their variables
    drawn with replacement from nvars (so they repeat inside atoms); each
    relation holds its atoms' rows under one or two random assignments and
    a few random rows, all over the alphabet.  Every free variable occurs
    in an atom, so the alphabet is enough for brute_eval."""
    dom = Domain(k)
    names = [f"v{i}" for i in range(nvars)]
    atoms = []
    for _ in range(atom_count):
        r = rng.randrange(len(arities))
        atoms.append((f"R{r}", tuple(rng.choices(names, k=arities[r]))))
    rows = {f"R{r}": {tuple(rng.choices(alphabet, k=ar)) for _ in range(rng.randint(0, 3))}
            for r, ar in enumerate(arities)}
    for _ in range(rng.randint(1, 2)):
        planted = {v: rng.choice(alphabet) for v in names}
        for rel_name, vars_ in atoms:
            rows[rel_name].add(tuple(planted[v] for v in vars_))
    used = [v for v in names if any(v in vars_ for _, vars_ in atoms)]
    free = used[:rng.randint(1, len(used))]
    formula = PPFormula(dom, tuple(free), tuple(v for v in names if v not in free),
                        tuple(atoms))
    env = {f"R{r}": relation(dom, ar, rows[f"R{r}"]) for r, ar in enumerate(arities)}
    return formula, env


def test_batched_filter_matches_brute_force(monkeypatch):
    filters = []
    holds = ppformula._holds

    def spy(index, table, cols, k):
        filters.append((k, *cols.shape))
        return holds(index, table, cols, k)
    monkeypatch.setattr(ppformula, "_holds", spy)
    lookups = _lookup_spy(monkeypatch)
    cases = [(2, (6,), 200, 7, (0, 1)),
             (3, (3,), 200, 4, (0, 1, 2)),
             (3, (2, 4), 400, 5, (0, 1, 2)),
             # 8 entries over k = 300 are keyed by their bytes: 300^8 > 2^64
             (300, (8, 2), 250, 4, (0, 1, 255, 256, 299))]
    rng = random.Random(16)
    for block in [ppformula.FILTER_BLOCK_ROWS, 7]:
        # with 7 keys per lookup, the rows and the atoms both come in blocks
        monkeypatch.setattr(ppformula, "FILTER_BLOCK_ROWS", block)
        for case in cases:
            for _ in range(4):
                formula, env = _planted_instance(rng, *case)
                got = eval_formula(formula, env)
                assert set(got.tuples) == brute_eval(formula, env, case[-1])
                assert len(got)     # the planted assignments satisfy the formula
    # over 100 atoms of one relation were looked up together, atoms of both
    # arities were filtered, some by their bytes, and atoms extended the
    # table by lookup (and were left out of the next filter)
    assert max(atoms for _, atoms, _ in filters) >= 100
    assert {(k, arity) for k, _, arity in filters} == {
        (k, arity) for k, arities, *_ in cases for arity in arities}
    assert 8 > _key_width(300)
    assert lookups


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
    # the first atom at fault is reported
    faults = (("R", ("a", "a")), ("S", ("a",)))
    env = {"R": full_relation(d3, 1)}
    with pytest.raises(ValueError, match="has 2 variables, relation arity is 1"):
        eval_formula(PPFormula(d3, ("a",), (), faults), env)
    with pytest.raises(ValueError, match="missing relation 'S'"):
        eval_formula(PPFormula(d3, ("a",), (), faults[::-1]), env)


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
