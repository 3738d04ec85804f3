"""The benchmark's workloads: their input files, CLI jobs and output checks.

Every input is generated through the public cloneops API from the seed.
Each workload has a full size, the one the benchmark measures, and a tiny
size with the same jobs and checks, for the benchmark's own tests.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# (arity, count, sha256) of the `centraliser` output for {T, u} at k=3, with
# u = family_op("u", (2, 1)).  Each file was also checked equal to an
# independent filter: the ternary one to the headline 1,048,578-member slice
# of T filtered by commute_mask against u, the binary one to the 65-member
# binary slice of T filtered by the scalar `commutes` against u.
TU_SLICE = {
    "full": (3, 524291, "4797b9ea62b54e3dcbf9abb057c5bbd94d7b153578f119e091bb938e112a1a15"),
    "tiny": (2, 34, "660d414fd68b1571b9b88f7e00a0b8a8dbca453488c1ef0bc47cff32089941f3"),
}
K5_SAMPLES = {"full": 10_000, "tiny": 50}


@dataclass
class JobResult:
    """What one run of a job left behind: exit code, streams, output dir."""
    code: int
    stdout: str
    stderr: str
    outdir: Path

    def text(self, name: str) -> str:
        path = self.outdir / name
        return path.read_text(encoding="utf-8") if path.is_file() else ""


@dataclass
class Job:
    argv: Callable[[Path, Path], list[str]]        # (input dir, output dir) -> CLI args
    outputs: tuple[str, ...]                       # files written to the output dir
    checks: Callable[[JobResult], list[tuple[str, bool]]]


@dataclass
class Workload:
    name: str
    size: str
    setup: Callable[[Path], None]                  # writes the input files
    jobs: list[Job]
    params: dict = field(default_factory=dict)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _exit_ok(res: JobResult) -> tuple[str, bool]:
    return ("exit 0", res.code == 0)


def _shuffled_relations(named, rng: random.Random) -> str:
    """emit_relations text with the tuple lines of each block permuted."""
    from cloneops import emit_relations
    lines = emit_relations(named).splitlines()
    out, i = [], 0
    while i < len(lines):
        out.append(lines[i])
        if lines[i] == "tuples":
            end = lines.index("end", i)
            block = lines[i + 1:end]
            rng.shuffle(block)
            out.extend(block)
            i = end
            continue
        i += 1
    return "\n".join(out) + "\n"


def ternary_slice_tu(size: str, seed: int) -> Workload:
    """`centraliser --arity 3` over {T, u} at k=3 (tiny: --arity 2)."""
    from cloneops import Domain, emit_operations, family_op, snow_t
    arity, count, sha = TU_SLICE[size]

    def setup(indir: Path):
        dom = Domain(3)
        ops = [("T", snow_t(3)), ("u", family_op("u", (2, 1), dom))]
        (indir / "Tu.ops").write_text(emit_operations(ops), encoding="utf-8")

    def checks(res: JobResult):
        text = res.text("cent.ops")
        return [_exit_ok(res),
                (f"# count {count}", text.startswith(f"# count {count}\n")),
                ("sha256", _sha256(text) == sha)]

    job = Job(lambda i, o: ["centraliser", "--ops", str(i / "Tu.ops"), "--arity",
                            str(arity), "--out", str(o / "cent.ops"), "--threads", "1"],
              ("cent.ops",), checks)
    return Workload("ternary-slice-tu", size, setup, [job])


def snow_k4_full(size: str, seed: int) -> Workload:
    """`verify-snow --mode full` at k=4 (tiny: k=3)."""
    k, graph, fragment = (4, 64, 10) if size == "full" else (3, 9, 5)

    def checks(res: JobResult):
        report = res.text("report.txt")
        return [_exit_ok(res),
                ("formula-defines-graph",
                 f"PASS formula-defines-graph: formula evaluates to the {graph}-tuple graph\n"
                 in report),
                ("separation",
                 f"PASS separation: separating function outside the {fragment}-member "
                 "fragment\n" in report),
                ("stdout is the report", bool(report) and res.stdout == report)]

    job = Job(lambda i, o: ["verify-snow", "--k", str(k), "--mode", "full",
                            "--report", str(o / "report.txt")],
              ("report.txt",), checks)
    return Workload("snow-k4-full", size, lambda indir: None, [job], {"k": k})


def snow_k5_witness(size: str, seed: int) -> Workload:
    """`verify-snow --mode witness --samples N` at k=5 (tiny: k=3)."""
    k = 5 if size == "full" else 3
    samples = K5_SAMPLES[size]
    graph = k ** (k - 1)
    refuted = graph * (k - 1)

    def checks(res: JobResult):
        report = res.text("report.txt")
        return [_exit_ok(res),
                ("soundness-witnesses",
                 f"PASS soundness-witnesses: all {graph} graph tuples witnessed\n" in report),
                ("completeness-sampling",
                 f"PASS completeness-sampling: no violation in {refuted}x{samples} "
                 "samples\n" in report),
                ("stdout is the report", bool(report) and res.stdout == report)]

    job = Job(lambda i, o: ["verify-snow", "--k", str(k), "--mode", "witness",
                            "--samples", str(samples), "--seed", str(seed),
                            "--report", str(o / "report.txt")],
              ("report.txt",), checks)
    return Workload("snow-k5-witness", size, lambda indir: None, [job],
                    {"k": k, "samples": samples})


def pp_closure_k3(size: str, seed: int) -> Workload:
    """The golden `ppdef` at k=3, then `clone` of the centraliser slice of T.

    The binary (tiny: unary) centraliser is a clone, so its fragment of that
    arity is itself: the `clone` output must equal the canonical slice file.
    The seed permutes the operation blocks and relation tuples of the inputs.
    """
    arity = 2 if size == "full" else 1
    expected: dict[str, str] = {}

    def setup(indir: Path):
        from cloneops import (Domain, OperationSet, emit_operations,
                              enumerate_centraliser, graph_of, relation, snow_f,
                              snow_t)
        rng = random.Random(seed)
        dom = Domain(3)
        t = snow_t(3)
        gamma = relation(dom, 3, [(1, 2, 1), (2, 1, 1)])
        for name, rel in [("graphT3.rel", ("T", graph_of(t))),
                          ("graphf3.rel", ("f", graph_of(snow_f(3)))),
                          ("gamma.rel", ("gamma", gamma))]:
            (indir / name).write_text(_shuffled_relations([rel], rng), encoding="utf-8")
        cent = enumerate_centraliser(OperationSet.from_operations(dom, [t]), arity)
        named = [(f"g{i}", op) for i, op in enumerate(cent.members(arity))]
        expected["cent.ops"] = emit_operations(named, count_comment=True)
        rng.shuffle(named)
        (indir / "cent.ops").write_text(emit_operations(named, count_comment=True),
                                        encoding="utf-8")

    def ppdef_checks(res: JobResult):
        return [_exit_ok(res),
                ("# L=32805 atoms=6561 exists=6",
                 res.text("phi.pp").startswith("# L=32805 atoms=6561 exists=6\n")),
                ("validation passed", "validation passed\n" in res.stderr),
                ("smt script", res.text("check.smt2").endswith("(check-sat)\n"))]

    def clone_checks(res: JobResult):
        return [_exit_ok(res),
                ("fragment equals the canonical slice",
                 bool(expected) and res.text("frag.ops") == expected["cent.ops"])]

    ppdef = Job(lambda i, o: ["ppdef", "--relations", str(i / "graphT3.rel"),
                              "--gen", str(i / "gamma.rel"), "--out", str(o / "phi.pp"),
                              "--smt", str(o / "check.smt2"),
                              "--validate", str(i / "graphf3.rel")],
                ("phi.pp", "check.smt2"), ppdef_checks)
    clone = Job(lambda i, o: ["clone", "--ops", str(i / "cent.ops"), "--arity",
                              str(arity), "--out", str(o / "frag.ops")],
                ("frag.ops",), clone_checks)
    return Workload("pp-closure-k3", size, setup, [ppdef, clone], {"clone_arity": arity})


WORKLOADS = {
    "ternary-slice-tu": ternary_slice_tu,
    "snow-k4-full": snow_k4_full,
    "snow-k5-witness": snow_k5_witness,
    "pp-closure-k3": pp_closure_k3,
}
