"""Tests of the benchmark itself, at the tiny size of each workload.

    python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

# per-layer values the tiny traced runs must report exactly
EXPECTED_LAYERS = {
    "ternary-slice-tu": {"commutation.candidates": 3 ** 9, "commutation.survivors": 34,
                         "commutation.opset_rows": 2, "textio.parse_bytes": 224},
    "snow-k4-full": {"ppformula.assignments": 27, "ppformula.sat_ratio": 1 / 3,
                     "clonegen.fragment_members": 5, "core.graph_tuples": 9 + 81,
                     "commutation.opset_rows": 1},
    "snow-k5-witness": {"snow.samples": 18 * 50, "clonegen.fragment_members": 5,
                        "core.graph_tuples": 9},
    "pp-closure-k3": {"synthesis.rows": 32805, "synthesis.atoms": 6561,
                      "synthesis.atom_ratio": 1.0, "ppformula.assignments": 27,
                      "ppformula.sat_ratio": 1 / 3, "clonegen.fragment_members": 4},
}
# layers that must show nonzero time in the tiny traced run
BUSY = {
    "ternary-slice-tu": ["commutation.ternary_s", "commutation.members_s",
                         "textio.emit_s", "textio.parse_s"],
    "snow-k4-full": ["ppformula.eval_s", "core.graph_s", "clonegen.fragment_s",
                     "commutation.opset_s", "snow.build_s"],
    "snow-k5-witness": ["snow.verify_s", "snow.samples_per_s"],
    "pp-closure-k3": ["synthesis.synth_s", "ppformula.smt_s", "ppformula.eval_s",
                      "clonegen.fragment_s", "textio.emit_s", "textio.parse_s"],
}


@pytest.fixture(autouse=True)
def _short_calibration(monkeypatch):
    monkeypatch.setattr(run, "CALIBRATION_UNITS", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 3)


def _result(capsys, name, seed, trace):
    wl = workloads.WORKLOADS[name]("tiny", seed)
    code = run.report(wl, seed, 0, trace)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_checks_outputs(capsys, name, seed):
    res = _result(capsys, name, seed, False)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert {k: v["unit"] for k, v in res["metrics"].items()} == END_TO_END
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["pass_ratio"] == 1.0
    assert all(m[k] > 0 for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_layers(capsys, name, seed):
    res = _result(capsys, name, seed, True)
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == PER_LAYER
    m = {k: v["value"] for k, v in res["metrics"].items()}
    for key, value in EXPECTED_LAYERS[name].items():
        assert m[key] == pytest.approx(value), key
    for key in BUSY[name]:
        assert m[key] > 0, key
    assert m["cli.self_s"] > 0 and m["trace.overhead_ratio"] > 0


def test_benchmark_json_names_every_workload_and_metric():
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)
    assert PER_LAYER == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_fail_on_missing_outputs(name, tmp_path):
    wl = workloads.WORKLOADS[name]("tiny", 1)
    for job in wl.jobs:
        res = workloads.JobResult(1, "", "", tmp_path)
        assert not any(ok for _, ok in job.checks(res))


def test_pp_closure_inputs_follow_the_seed(tmp_path):
    texts = []
    for seed in (1, 2, 1):
        indir = tmp_path / f"in{len(texts)}"
        indir.mkdir()
        workloads.WORKLOADS["pp-closure-k3"]("full", seed).setup(indir)
        texts.append({p.name: p.read_text() for p in indir.iterdir()})
    assert texts[0] == texts[2]
    assert texts[0]["cent.ops"] != texts[1]["cent.ops"]
    assert sorted(texts[0]["cent.ops"].splitlines()) == sorted(texts[1]["cent.ops"].splitlines())


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "snow-k4-full", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_job_rss_is_the_jobs_own(tmp_path):
    import numpy
    ballast = numpy.ones(200 * 2 ** 20 // 8)       # 200 MB resident in this process
    with run.Runner(time.monotonic() + 60) as runner:
        code, _, _, stats = runner.run([sys.executable, "-c", "pass"], tmp_path / "log")
    assert runner.launcher.returncode == 0
    assert code == 0 and 0 < stats["rss_mb"] < 100
    assert ballast.sum() == ballast.size


def test_times_scale_to_the_reference_speed():
    unit = run.REFERENCE_UNIT_S
    # a host at half the reference speed: a unit takes twice as long
    assert run._at_reference_speed(10.0, [(2 * unit, 0.0), (2 * unit, 0.0)]) == \
        pytest.approx(5.0)
    assert run._at_reference_speed(3.0, [(0.0, unit), (0.0, 3 * unit)], 1) == \
        pytest.approx(1.5)


def _span(sid, name, start, end, parent=None, probe=False):
    return {"id": sid, "name": name, "parent": parent, "job": "j", "workload": "w",
            "probe": probe, "start": start, "end": end, "counts": {}}


def test_self_time_subtracts_children_and_probes():
    spans = [
        _span(0, "cli.verify-snow", 0.0, 10.0),
        _span(1, "snow.verify_separation", 1.0, 6.0, parent=0),
        _span(2, tracing.PROBE_BLOCK, 6.0, 9.0, parent=0),
        _span(3, "core.graph_of", 6.0, 7.0, parent=1, probe=True),
        _span(4, "ppformula.eval_formula", 7.0, 9.0, parent=1, probe=True),
        _span(5, "textio.emit_operations", 9.0, 9.5, parent=0),
        _span(6, "textio.emit_operations", 9.25, 9.75, parent=0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[("j", 1)] == pytest.approx(2.0)          # 5 s minus 3 s of probes
    assert selfs[("j", 0)] == pytest.approx(10.0 - 5.0 - 3.0 - 0.75)
    assert tracing.probe_seconds(spans) == pytest.approx(3.0)
    m = tracing.layer_metrics(spans)
    assert m["snow.verify_s"] == pytest.approx(2.0)
    assert m["core.graph_s"] == pytest.approx(1.0)
    assert m["ppformula.eval_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(1.25)
    assert set(m) | {"trace.overhead_ratio"} == set(tracing.PER_LAYER_UNITS)
