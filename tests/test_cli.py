import gc
import subprocess
import sys

import pytest

import cloneops.clonegen as clonegen
from cloneops import (Domain, Operation, emit_operations, emit_relations,
                      parse_formula, parse_operations, parse_relations, relation,
                      sparse_op)
from cloneops import cli
from cloneops.cli import run


@pytest.fixture
def snow_files(tmp_path):
    paths = {
        "t": tmp_path / "T3.ops", "f": tmp_path / "f3.ops",
        "gt": tmp_path / "graphT3.rel", "gf": tmp_path / "graphf3.rel",
        "phi": tmp_path / "phi3.pp",
    }
    code = run(["snow", "--k", "3",
                "--emit-t", str(paths["t"]), "--emit-f", str(paths["f"]),
                "--emit-graph-t", str(paths["gt"]),
                "--emit-graph-f", str(paths["gf"]),
                "--emit-formula", str(paths["phi"])])
    assert code == 0
    return paths


def test_snow_outputs_reparse(snow_files, t3, f3):
    [(name, op)] = parse_operations(snow_files["t"].read_text())
    assert name == "T" and op == t3
    [(_, fop)] = parse_operations(snow_files["f"].read_text())
    assert fop == f3
    formula = parse_formula(snow_files["phi"].read_text())
    assert len(formula.atoms) == 5
    [(_, g)] = parse_relations(snow_files["gt"].read_text())
    assert len(g) == 81


def test_centraliser_counts_and_determinism(snow_files, tmp_path):
    out1 = tmp_path / "c1.ops"
    assert run(["centraliser", "--ops", str(snow_files["t"]), "--arity", "1",
                "--out", str(out1)]) == 0
    assert out1.read_text().startswith("# count 4\n")

    out2a = tmp_path / "c2a.ops"
    out2b = tmp_path / "c2b.ops"
    out2t = tmp_path / "c2t.ops"
    assert run(["centraliser", "--ops", str(snow_files["t"]), "--arity", "2",
                "--out", str(out2a)]) == 0
    assert run(["centraliser", "--ops", str(snow_files["t"]), "--arity", "2",
                "--out", str(out2b)]) == 0
    assert run(["centraliser", "--ops", str(snow_files["t"]), "--arity", "2",
                "--out", str(out2t), "--threads", "3"]) == 0
    assert out2a.read_text().startswith("# count 65\n")
    assert out2a.read_bytes() == out2b.read_bytes() == out2t.read_bytes()
    ops = parse_operations(out2a.read_text())
    assert len(ops) == 65


def test_clone_subcommand(snow_files, tmp_path):
    out = tmp_path / "frag2.ops"
    assert run(["clone", "--ops", str(snow_files["t"]), "--arity", "2",
                "--out", str(out)]) == 0
    assert out.read_text().startswith("# count 5\n")


def test_verify_snow_report(tmp_path, capsys):
    report = tmp_path / "rep.txt"
    code = run(["verify-snow", "--k", "3", "--mode", "full",
                "--report", str(report)])
    assert code == 0
    text = report.read_text()
    assert "PASS formula-defines-graph" in text
    assert "PASS separation" in text
    assert "# argv: verify-snow --k 3 --mode full" in text


def test_eval_formula_roundtrip(snow_files, tmp_path):
    out = tmp_path / "result.rel"
    assert run(["eval-formula", "--formula", str(snow_files["phi"]),
                "--relations", str(snow_files["gt"]), "--out", str(out)]) == 0
    [(name, rel)] = parse_relations(out.read_text())
    assert name == "result" and len(rel) == 9
    [(_, gf)] = parse_relations(snow_files["gf"].read_text())
    assert rel == gf


def test_ppdef_pipeline(snow_files, tmp_path):
    gen = tmp_path / "gen.rel"
    gen.write_text("rel gamma\ndomain 3\narity 3\ntuples\n1 2 1\n2 1 1\nend\n")
    out = tmp_path / "phi.pp"
    smt = tmp_path / "check.smt2"
    code = run(["ppdef", "--relations", str(snow_files["gt"]),
                "--gen", str(gen), "--out", str(out), "--smt", str(smt),
                "--validate", str(snow_files["gf"])])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# L=32805 atoms=6561 exists=6\n")
    formula = parse_formula(text)
    assert len(formula.atoms) == 6561
    assert smt.read_text().count("(mem_T") == 6561


def test_ppdef_validation_failure(snow_files, tmp_path):
    gen = tmp_path / "gen.rel"
    gen.write_text("rel gamma\ndomain 3\narity 3\ntuples\n1 2 1\nend\n")
    # a single generator does not generate the full graph
    code = run(["ppdef", "--relations", str(snow_files["gt"]),
                "--gen", str(gen), "--validate", str(snow_files["gf"]),
                "--out", str(tmp_path / "phi.pp")])
    assert code == 1


@pytest.mark.parametrize("command, count", [("centraliser", 65), ("clone", 5)])
def test_stdout_matches_out_file(snow_files, tmp_path, capsys, command, count):
    argv = [command, "--ops", str(snow_files["t"]), "--arity", "2"]
    out = tmp_path / "out.ops"
    assert run(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
    assert out.read_text().startswith(f"# count {count}\n")


def test_clone_work_cap_exit_code(tmp_path, capsys, monkeypatch):
    d2 = Domain(2)
    ops = tmp_path / "max.ops"
    ops.write_text(emit_operations([("max", Operation(d2, 2, (0, 1, 1, 1)))]))
    monkeypatch.setattr(clonegen, "CLOSURE_WORK_CAP", 15)
    assert run(["clone", "--ops", str(ops), "--arity", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "work cap" in captured.err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_clone_cap_below_one_exit_code(snow_files, cap, monkeypatch, capsys):
    # no fragment has fewer than 1 member: refused before any round
    monkeypatch.setattr(clonegen, "_closure_rounds", None)
    capsys.readouterr()
    assert run(["clone", "--ops", str(snow_files["t"]), "--arity", "2",
                "--cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: the fragment cap must be at least 1, got {cap}\n"
    assert captured.out == ""


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.pp"
    bad.write_text("domains 3\n")
    assert run(["eval-formula", "--formula", str(bad),
                "--relations", str(bad)]) == 2
    missing = tmp_path / "nothere.ops"
    assert run(["centraliser", "--ops", str(missing), "--arity", "1"]) == 2


def test_budget_exit_code(snow_files):
    assert run(["centraliser", "--ops", str(snow_files["t"]), "--arity", "2",
                "--budget", "10"]) == 3


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_below_one_exit_code(snow_files, tmp_path, budget, capsys):
    out = tmp_path / "cent.ops"
    capsys.readouterr()
    assert run(["centraliser", "--ops", str(snow_files["t"]), "--arity", "2",
                "--budget", budget, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: the budget must be at least 1, got {budget}\n"
    assert not out.exists()
    gen = tmp_path / "gen.rel"
    gen.write_text("rel gamma\ndomain 3\narity 3\ntuples\n1 2 1\n2 1 1\nend\n")
    out = tmp_path / "phi.pp"
    assert run(["ppdef", "--relations", str(snow_files["gt"]), "--gen", str(gen),
                "--row-budget", budget, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: the row budget must be at least 1, got {budget}\n"
    assert not out.exists()


def test_console_script_version():
    out = subprocess.run([sys.executable, "-m", "cloneops.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.startswith("cloneops ")


def test_cli_import_leaves_out_the_thread_pool():
    # every job pays for its imports; only a search on several threads needs the pool
    out = subprocess.run([sys.executable, "-c",
                          "import sys, cloneops.cli; print('concurrent.futures' in sys.modules)"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout == "False\n"


def test_witness_job_leaves_out_numpy_random_and_openssl():
    # the cells are drawn from the standard library's generator, so the job
    # never imports numpy.random, whose import also loads OpenSSL (_hashlib)
    script = ("import sys\n"
              "from cloneops.cli import run\n"
              "code = run(['verify-snow', '--k', '5', '--mode', 'witness', '--samples', '1000'])\n"
              "print(code, sorted({'numpy.random', '_hashlib'} & set(sys.modules)), "
              "file=sys.stderr)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "PASS completeness-sampling: no violation in 2500x1000 samples" in out.stdout
    assert out.stderr == "0 []\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_package_import_pauses_the_collector(enabled):
    # what numpy and cloneops build while imported lives until exit, so the
    # collector stays off for the import and is then left as it was
    script = ("import gc, sys\n"
              "runs = []\n"
              "gc.callbacks.append(lambda phase, info: phase == 'start' and runs.append(info))\n"
              f"{'gc.enable()' if enabled else 'gc.disable()'}\n"
              "import cloneops\n"
              "print(len(runs), gc.isenabled())\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    runs, left_enabled = out.stdout.split()
    assert int(runs) <= 1
    assert left_enabled == str(enabled)


def test_main_freezes_the_heap_and_exits_with_the_run_code(snow_files, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["cloneops", "centraliser", "--ops", str(snow_files["t"]),
                                      "--arity", "2", "--budget", "10"])
    try:
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        assert exit_info.value.code == 3
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_domain_beyond_uint8_exit_code(tmp_path, capsys):
    ops = tmp_path / "big.ops"
    ops.write_text("op g\ndomain 300\narity 1\ntable 256" + " 0" * 299 + "\n")
    assert run(["centraliser", "--ops", str(ops), "--arity", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["snow", "verify-snow"])
def test_oversize_separating_function_exit_code(command, capsys):
    # f at k=11 would have 11^10 table entries; the size check comes first
    assert run([command, "--k", "11"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_witness_sample_count_exit_code(samples, capsys):
    assert run(["verify-snow", "--k", "3", "--mode", "witness",
                "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_witness_negative_seed_exit_code(capsys):
    assert run(["verify-snow", "--k", "3", "--mode", "witness", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: witness mode needs a non-negative seed, got -1\n"
    assert captured.out == ""


def test_witness_sample_cap_exit_code(capsys):
    # k=7: up to 36 refuted tuples x 10^6 samples x 30 drawn cells
    assert run(["verify-snow", "--k", "7", "--mode", "witness", "--samples", "1000000"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_eval_formula_cap_exit_code(tmp_path, capsys):
    # one 25-ary atom at k=3: the table of partial assignments outgrows the
    # size cap long before the atom can be checked
    names = " ".join(f"x{i}" for i in range(25))
    phi = tmp_path / "wide.pp"
    phi.write_text(f"domain 3\nfreevars x0\nexists {names[3:]}\natom R {names}\n")
    rel = tmp_path / "wide.rel"
    rel.write_text(emit_relations([("R", relation(Domain(3), 25, [(0,) * 25]))]))
    out = tmp_path / "out.rel"
    assert run(["eval-formula", "--formula", str(phi), "--relations", str(rel),
                "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "over the cap" in captured.err
    assert not out.exists()


def test_centraliser_constraint_cap_exit_code(tmp_path, capsys):
    # a 9-ary member at k=3 that is not {0,1}-valued: the binary sweep of its
    # graph would index (3^9)^2 constraints
    ops = tmp_path / "wide.ops"
    ops.write_text(emit_operations([("g", sparse_op(Domain(3), 9, {(2,) * 9: 2}))]))
    assert run(["centraliser", "--ops", str(ops), "--arity", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "over the cap" in captured.err
    assert captured.out == ""


def test_centraliser_of_a_wide_01_spike(tmp_path):
    # the {0,1}-valued spike is decided by pattern counting, without its graph;
    # 56 is also what checking every set of columns of a 2-by-9 matrix gives
    ops = tmp_path / "wide.ops"
    ops.write_text(emit_operations([("g", sparse_op(Domain(3), 9, {(2,) * 9: 1}))]))
    out = tmp_path / "cent.ops"
    assert run(["centraliser", "--ops", str(ops), "--arity", "2", "--out", str(out)]) == 0
    assert out.read_text().startswith("# count 56\n")


def test_clone_projection_cap_exit_code(snow_files, capsys):
    # 3^20 x 20 projection table entries
    out = snow_files["t"].parent / "frag.ops"
    assert run(["clone", "--ops", str(snow_files["t"]), "--arity", "20",
                "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "over the cap" in captured.err
    assert not out.exists()
