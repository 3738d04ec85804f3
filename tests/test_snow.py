import random
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cloneops
import cloneops.snow as snow
from cloneops import (CapExceeded, Domain, arrow_plan, commutes, evaluate,
                      graph_of, snow_f, snow_instance, snow_pp_formula,
                      snow_t, snow_t_value, verify_separation)


def test_t3_table_is_the_two_point_indicator(t3):
    assert t3.arity == 4
    for args in product(range(3), repeat=4):
        expect = 1 if args in ((1, 1, 2, 2), (1, 2, 1, 2)) else 0
        assert evaluate(t3, args) == expect


def test_t4_values():
    t4 = snow_t(4)
    assert t4.arity == 9
    assert evaluate(t4, (1, 2, 3, 1, 2, 3, 1, 2, 3)) == 1
    assert evaluate(t4, (1, 1, 1, 2, 2, 2, 3, 3, 3)) == 1
    assert evaluate(t4, (0, 1, 2, 2, 1, 1, 1, 2, 3)) == 0


def test_t3_kills_zero_entries(t3):
    assert evaluate(t3, (0, 1, 2, 2)) == 0


def test_snow_t_domain_errors():
    with pytest.raises(ValueError):
        snow_t(2)
    with pytest.raises(CapExceeded):
        snow_t(5)  # 5^16 table entries


def test_squares_built_once_per_k():
    for k in (3, 4, 5):
        assert snow.square_p1(k) is snow.square_p1(k)
        assert snow.square_p2(k) is snow.square_p2(k)
        assert snow_instance(k).p1 is snow.square_p1(k)


def test_rule_preimage_and_kill_properties():
    rng = random.Random(11)
    for k in (3, 4, 5, 6):
        inst = snow_instance(k)
        n = k - 1
        assert snow_t_value(k, inst.p1) == 1
        assert snow_t_value(k, inst.p2) == 1
        seen_ones = 0
        for _ in range(300):
            args = [rng.randrange(k) for _ in range(n * n)]
            v = snow_t_value(k, args)
            if 0 in args or len(set(args)) < n:
                assert v == 0
            if v == 1:
                seen_ones += 1
                assert tuple(args) in (inst.p1, inst.p2)
        # the preimage of 1 is exactly the two special squares
        assert inst.p1 != inst.p2


def test_snow_f_tables():
    f3 = snow_f(3)
    assert f3.arity == 2
    assert [evaluate(f3, a) for a in product(range(3), repeat=2)] == \
        [0, 0, 0, 0, 0, 1, 0, 1, 0]
    f4 = snow_f(4)
    assert evaluate(f4, (1, 2, 3)) == 1
    assert evaluate(f4, (3, 2, 1)) == 1
    assert evaluate(f4, (2, 2, 2)) == 0
    for k in (3, 4, 5):
        assert evaluate(snow_f(k), (0,) * (k - 1)) == 0


def test_instance_fields():
    inst = snow_instance(4)
    assert inst.n == 3
    assert inst.up == (1, 2, 3)
    assert inst.down == (3, 2, 1)
    assert inst.t_op is not None
    inst5 = snow_instance(5)
    assert inst5.t_op is None          # beyond the materialisation cap
    assert inst5.f_op.arity == 4
    assert inst5.t_value(inst5.p1) == 1


def test_arrow_plan_consistency():
    for k in (3, 4, 5):
        n = k - 1
        plan = arrow_plan(n)
        inst = snow_instance(k)
        assert plan.anti[::-1] == plan.anti_reversed
        for i in range(n):
            # p1 has constant rows, p2 has constant columns with values 1..n
            assert {inst.p1[p] for p in plan.rows[i]} == {i + 1}
            assert {inst.p2[p] for p in plan.cols[i]} == {i + 1}
        # reading p2 along the anti-diagonal gives the reversed tuple
        assert tuple(inst.p2[p] for p in plan.anti) == inst.down
        assert tuple(inst.p1[p] for p in plan.anti) == inst.up


def test_formula_shape():
    phi3 = snow_pp_formula(3)
    assert len(phi3.atoms) == 5
    assert len(phi3.exist_vars) == 4
    phi4 = snow_pp_formula(4)
    assert len(phi4.atoms) == 5
    assert len(phi4.exist_vars) == 3 * 3 - 3 + 2
    for k in (3, 4, 5):
        n = k - 1
        for _, vars_ in snow_pp_formula(k).atoms:
            assert len(vars_) == n * n + 1


def test_formula_matches_reference_atoms():
    # square cells x11 x12 / x21 x22; anti-diagonal (x12, x21); value y
    phi = snow_pp_formula(3)
    assert phi.free_vars == ("x12", "x21", "y")
    assert phi.atoms == (
        ("T", ("x11", "x12", "x21", "x22", "y")),
        ("T", ("x12", "x21", "x12", "x21", "u")),
        ("T", ("x11", "x12", "x22", "x21", "u")),
        ("T", ("x21", "x12", "x21", "x12", "v")),
        ("T", ("x11", "x21", "x22", "x12", "v")),
    )


def test_f_commutes_with_every_binary_centraliser_member(f3, binary_centraliser):
    for g in binary_centraliser.members(2):
        assert commutes(f3, g)


def test_verify_full_k3():
    report = verify_separation(3, "full")
    assert report.passed
    text = report.render()
    assert "PASS formula-defines-graph" in text
    assert "PASS separation" in text


def test_verify_witness_k3():
    report = verify_separation(3, "witness", samples=2000, seed=1)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["soundness-witnesses", "completeness-sampling", "separation"]


def test_verify_full_rejected_beyond_cap():
    with pytest.raises(CapExceeded):
        verify_separation(5, "full")


def test_verify_mode_validation():
    with pytest.raises(ValueError):
        verify_separation(3, "exhaustive")


def test_snow_f_size_checked_before_allocating():
    with pytest.raises(CapExceeded):
        snow_f(11)                      # 11^10 table entries


@pytest.mark.parametrize("samples", [0, -5])
def test_witness_needs_a_sample_before_any_work(samples, monkeypatch):
    def no_instance(k):
        raise AssertionError("the instance was built before the sample check")
    monkeypatch.setattr(snow, "snow_instance", no_instance)
    with pytest.raises(ValueError, match="at least 1 sample"):
        verify_separation(3, "witness", samples=samples)


@pytest.mark.parametrize("seed", [-1, -2 ** 40])
def test_witness_needs_a_non_negative_seed_before_any_work(seed, monkeypatch):
    def no_instance(k):
        raise AssertionError("the instance was built before the seed check")
    monkeypatch.setattr(snow, "snow_instance", no_instance)
    with pytest.raises(ValueError, match=f"non-negative seed, got {seed}"):
        verify_separation(3, "witness", samples=10, seed=seed)


def test_full_mode_ignores_the_seed():
    assert verify_separation(3, "full", seed=-1).passed


def _stream_cells(k, key, count):
    """The first count cells of the witness stream keyed by key, byte by byte.

    The bytes are random.Random(' '.join(map(str, key))).randbytes, read
    in 4-byte words.  With k^c <= 256 < k^(c+1), a byte below the largest
    multiple of k^c in 256 gives the c base-k digits of its remainder mod
    k^c, most significant first, and every other byte is skipped.
    """
    c = max(c for c in range(1, 9) if k ** c <= 256)
    limit = 256 // k ** c * k ** c
    digits = [[b % k ** c // k ** j % k for j in reversed(range(c))] for b in range(limit)]
    rng = random.Random(" ".join(map(str, key)))
    cells = []
    while len(cells) < count:
        for byte in rng.randbytes(4):
            if byte < limit:
                cells += digits[byte]
    return cells[:count]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 10, 16])
def test_drawn_cells_follow_the_stream_definition(k):
    c = max(c for c in range(1, 9) if k ** c <= 256)
    # 1001 is a multiple of no c; the last count needs a second block
    for count in (1, c + 1, 1001, snow.DRAW_BLOCK * c + 7):
        key = (2 ** 70, count, k - 1)
        drawn = snow._draw_cells(k, key, count)
        assert drawn.dtype == np.uint8
        assert drawn.tolist() == _stream_cells(k, key, count)


def test_witness_draws_only_where_a_pattern_can_read_them(monkeypatch):
    inst = snow_instance(5)
    keys = []
    draw = snow._draw_cells
    monkeypatch.setattr(snow, "_draw_cells",
                        lambda k, key, count: keys.append((k, key, count)) or draw(k, key, count))
    result = snow._witness_completeness(5, inst, 10_000, 1)
    assert (result.status, result.detail) == (
        "PASS", "no violation in 2500x10000 samples")
    assert {(k, count) for k, _, count in keys} == {(5, 10_000 * 12)}
    keys = [key for _, key, _ in keys]
    tuples = list(product(range(5), repeat=4))
    drawn = {(tuples[i], y) for seed, i, y in keys}
    patterned = set().union(*snow._atom_patterns(inst))
    assert patterned == {inst.up, inst.down, (4, 2, 3, 4), (4, 3, 2, 4)}
    assert len(keys) == len(drawn) == 16
    assert drawn == {(x, y) for x in patterned for y in range(5)
                     if y != (x in (inst.up, inst.down))}
    assert {seed for seed, i, y in keys} == {1}


def test_witness_k8_report():
    # 2,097,152 argument tuples, decided in five classes: four patterned
    # anti-diagonals and one for all the others
    lines = verify_separation(8, "witness", samples=1000).render().splitlines()
    assert lines[2:] == [
        "PASS soundness-witnesses: all 2097152 graph tuples witnessed",
        "PASS completeness-sampling: no violation in 14680064x1000 samples",
        "SKIP separation: fragment enumeration out of budget for k=8"]


def test_witness_k3_report_text():
    assert verify_separation(3, "witness", samples=2000, seed=1).render() == (
        f"# cloneops {cloneops.__version__} separation report\n"
        "# k=3 mode=witness samples=2000 seed=1\n"
        "PASS soundness-witnesses: all 9 graph tuples witnessed\n"
        "PASS completeness-sampling: no violation in 18x2000 samples\n"
        "PASS separation: separating function outside the 5-member fragment\n")


def test_witness_sample_cap_raises_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("samples were drawn before the cap check")
    monkeypatch.setattr(snow, "_draw_cells", no_draws)
    monkeypatch.setattr(snow, "snow_instance", no_draws)
    # at most 6 x (k-1) refuted tuples draw samples x (n^2 - n) cells each
    with pytest.raises(CapExceeded, match=r"bytes \(.*\), over the cap"):
        verify_separation(7, "witness", samples=snow.WITNESS_SAMPLE_CAP // (36 * 30) + 1)
    with pytest.raises(CapExceeded, match=r"bytes \(.*\), over the cap"):
        verify_separation(5, "witness", samples=snow.WITNESS_SAMPLE_CAP // (24 * 12) + 1)
    # acceptance criterion 7, the k=5 demo and k=7 at the default samples fit
    assert 6 * 6 * 100_000 * 30 <= snow.WITNESS_SAMPLE_CAP


def _formula_positions(k):
    """Flat square positions of the anti-diagonal and of atoms 1, 3 and 5,
    read off the cell names x<i><j> of the formula."""
    n = k - 1
    names = [f"x{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    formula = snow_pp_formula(k)
    anti = [names.index(v) for v in formula.free_vars[:-1]]
    orders = [[names.index(v) for v in formula.atoms[a][1][:-1]] for a in (0, 2, 4)]
    return anti, orders


@pytest.mark.parametrize("k", [3, 4, 5])
def test_atom_patterns_are_the_pullbacks_of_the_ones_of_t(k):
    inst = snow_instance(k)
    n = k - 1
    anti, orders = _formula_positions(k)
    others = [p for p in range(n * n) if p not in anti]
    for table, order in zip(snow._atom_patterns(inst), orders):
        read = []
        for x, rows in table.items():
            for row in rows:
                square = [0] * (n * n)
                for pos, value in zip(anti + others, x + tuple(row.tolist())):
                    square[pos] = value
                read.append(tuple(square[p] for p in order))
        assert sorted(read) == sorted([inst.p1, inst.p2])


def _reference_violations(k, inst, samples, seed):
    """Satisfying samples outside the claimed graph, with every square
    assembled, and the samples under the claimed up on which atom 3 or 5
    is 1, the pullback matches.

    T is evaluated on each assembled square and on its re-orderings for
    atoms 3 and 5.  Every refuted (x, y) draws its cells, row by row, from
    the stream the witness check gives it, keyed by (seed, i, y), i the
    position of x in product order.
    """
    n = k - 1
    anti, (_, a3, a5) = _formula_positions(k)
    others = [p for p in range(n * n) if p not in anti]
    ones = np.array([inst.p1, inst.p2], dtype=np.uint8)

    def rule(squares):
        return (squares[:, None, :] == ones).all(axis=2).any(axis=1).astype(np.uint8)

    claimed = {inst.up: 1, inst.down: 1}
    violations = matches = 0
    for i, x in enumerate(product(range(k), repeat=n)):
        for y in range(k):
            if y == claimed.get(x, 0):
                continue
            xv = np.array(x, dtype=np.uint8)
            u0 = rule(np.tile(xv, n)[None, :])[0]
            v0 = rule(np.tile(xv[::-1], n)[None, :])[0]
            squares = np.zeros((samples, n * n), dtype=np.uint8)
            squares[:, anti] = xv
            cells = _stream_cells(k, (seed, i, y), samples * len(others))
            squares[:, others] = np.array(cells, dtype=np.uint8).reshape(samples, -1)
            atom3, atom5 = rule(squares[:, a3]), rule(squares[:, a5])
            sat = (rule(squares) == y) & (atom3 == u0) & (atom5 == v0)
            violations += int(sat.sum())
            if x == inst.up:
                matches += int((atom3 | atom5).sum())
    return violations, matches


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from([3, 4]), claim=st.integers(0, 4 ** 3 - 1),
       samples=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
@example(k=3, claim=0, samples=30, seed=0)
@example(k=4, claim=0, samples=40, seed=1)
@example(k=3, claim=8, samples=40, seed=0)
@example(k=4, claim=59, samples=20_000, seed=2)
def test_witness_checks_match_the_assembled_squares(k, claim, samples, seed):
    # f claimed to be 1 on `up`, drawn from all argument tuples.  Claim 0 is
    # the all-zero tuple, for which every sample refuting (0..0, 0) satisfies
    # the formula; claims 8 (k=3) and 59 (k=4) are (2, 2) and (3, 2, 3), the
    # anti-diagonal of a pullback pattern, which some samples then match.
    # The real up tuple loses its witness whenever the claim moves it.
    n = k - 1
    real = snow_instance(k)
    up = tuple(int(d) for d in np.unravel_index(claim % k ** n, (k,) * n))
    inst = real._replace(up=up)
    expected, matches = _reference_violations(k, inst, samples, seed)
    if (k, claim, samples, seed) in ((3, 8, 40, 0), (4, 59, 20_000, 2)):
        assert matches
    result = snow._witness_completeness(k, inst, samples, seed)
    if up == real.up:
        assert expected == 0
    if not any(up):
        assert expected >= samples      # no pattern has a 0 cell
    if expected:
        assert result.status == "FAIL"
        assert result.detail == f"{expected} satisfying samples outside the graph"
    else:
        assert result.status == "PASS"
    soundness = snow._witness_soundness(k, inst)
    assert soundness.status == ("PASS" if up == real.up else "FAIL")
