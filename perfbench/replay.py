"""Traced replay of one cloneops CLI job, in a fresh interpreter like the job.

The job's arguments are parsed with cloneops' own parser; the replay then
makes the same sequence of public calls as the matching ``cmd_*`` function
of ``cloneops.cli``, with a span around each call, and writes the same
files and streams, so its outputs can be compared byte for byte with the
untraced job's.  The spans are written as JSON to ``--spans`` on exit.

    python3 perfbench/replay.py --spans FILE --job ID --workload NAME \
        --seed N -- <cloneops arguments>
"""
import time

_START = time.perf_counter()  # the job span covers importing cloneops too

import argparse
import json
import sys
from pathlib import Path

from tracing import PROBE_BLOCK, Tracer


def _read(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


class Replay:
    """The cmd_* sequences of cloneops.cli, one public call per span."""

    def __init__(self, tracer: Tracer, seed: int):
        import cloneops
        import numpy
        self.c = cloneops
        self.tr = tracer
        self.rng = numpy.random.default_rng(seed)

    # -- spans around single public calls -----------------------------------

    def parse(self, fn, path):
        text = _read(path)
        with self.tr.span(f"textio.{fn.__name__}") as s:
            out = fn(text)
            s["counts"]["bytes"] = len(text.encode("utf-8"))
        return out

    def emit(self, fn, *args, **kwargs) -> str:
        with self.tr.span(f"textio.{fn.__name__}") as s:
            text = fn(*args, **kwargs)
            s["counts"]["bytes"] = len(text.encode("utf-8"))
        return text

    def opset(self, make, parent=None, probe=False):
        with self.tr.span("commutation.OperationSet", parent, probe) as s:
            ops = make()
            s["counts"]["rows"] = ops.count()
            s["counts"]["bytes"] = sum(ops.tables(a).nbytes for a in ops.arities())
        return ops

    def members(self, ops, arity):
        with self.tr.span("commutation.members"):
            return [(f"g{i}", op) for i, op in enumerate(ops.members(arity))]

    def graph(self, op, parent=None, probe=False):
        with self.tr.span("core.graph_of", parent, probe) as s:
            rel = self.c.graph_of(op)
            s["counts"]["tuples"] = len(rel)
        return rel

    def eval_formula(self, formula, env, parent=None, probe=False):
        with self.tr.span("ppformula.eval_formula", parent, probe) as s:
            rel = self.c.eval_formula(formula, env)
        k = formula.domain.k
        unconstrained = len(formula.unconstrained_free)
        s["counts"]["assignments"] = k ** (len(formula.free_vars) - unconstrained)
        s["counts"]["satisfied"] = len(rel) // k ** unconstrained
        return rel

    def fragment(self, gens, arity, parent=None, probe=False, **kwargs):
        with self.tr.span("clonegen.clone_fragment", parent, probe) as s:
            frag = self.c.clone_fragment(gens, arity, **kwargs)
            s["counts"]["members"] = frag.count(arity)
        return frag

    def load_operation_set(self, path):
        named = self.parse(self.c.parse_operations, path)
        if not named:
            raise ValueError(f"no operations found in {path}")
        domain = named[0][1].domain
        return self.opset(lambda: self.c.OperationSet.from_operations(
            domain, [op for _, op in named]))

    # -- the CLI commands ---------------------------------------------------

    def verify_snow(self, args) -> int:
        c, tr = self.c, self.tr
        from cloneops.snow import FRAGMENT_MAX_MAPS
        with tr.span("snow.verify_separation") as s:
            report = c.verify_separation(args.k, mode=args.mode, samples=args.samples,
                                         seed=args.seed)
        if args.mode == "witness":
            # each argument tuple x is paired with the k-1 values other than f(x)
            s["counts"]["samples"] = args.k ** (args.k - 1) * (args.k - 1) * args.samples
        parent = s["id"]
        with tr.span(PROBE_BLOCK):
            with tr.span("snow.snow_instance", parent, True):
                inst = c.snow_instance(args.k)
            self.graph(inst.f_op, parent, True)
            if args.mode == "full":
                with tr.span("snow.snow_pp_formula", parent, True):
                    formula = c.snow_pp_formula(args.k)
                graph_t = self.graph(inst.t_op, parent, True)
                self.eval_formula(formula, {"T": graph_t}, parent, True)
            n = inst.n
            if inst.t_op is not None and n ** (n * n) <= FRAGMENT_MAX_MAPS:
                ts = self.opset(lambda: c.OperationSet.from_operations(
                    inst.domain, [inst.t_op]), parent, True)
                self.fragment(ts, n, parent, True)
        text = report.render()
        text += f"# argv: verify-snow --k {args.k} --mode {args.mode}\n"
        if args.report:
            _write(args.report, text)
        sys.stdout.write(text)
        return 0 if report.passed else 1

    def centraliser(self, args) -> int:
        c, tr = self.c, self.tr
        fs = self.load_operation_set(args.ops)
        with tr.span("commutation.enumerate_centraliser") as s:
            result, stats = c.enumerate_centraliser(
                fs, args.arity, budget=args.budget, threads=args.threads,
                return_stats=True)
            s["counts"].update(candidates=stats.candidates, survivors=stats.survivors)
        if args.arity == 3:
            # the ternary search builds the binary slice, then canonicalises
            # its survivors (in search order, here a permutation of them)
            with tr.span(PROBE_BLOCK):
                with tr.span("commutation.enumerate_centraliser", s["id"], True):
                    c.enumerate_centraliser(fs, 2, budget=args.budget,
                                            threads=args.threads)
                rows = result.tables(3)[self.rng.permutation(result.count(3))]
                self.opset(lambda: c.OperationSet(fs.domain, {3: rows}), s["id"], True)
        named = self.members(result, args.arity)
        _write(args.out, self.emit(c.emit_operations, named, count_comment=True))
        print(f"{result.count(args.arity)} operations of arity {args.arity} "
              f"commute with all {len(fs)} given operations", file=sys.stderr)
        return 0

    def clone(self, args) -> int:
        gens = self.load_operation_set(args.ops)
        fragment = self.fragment(gens, args.arity, cap=args.cap)
        named = self.members(fragment, args.arity)
        _write(args.out, self.emit(self.c.emit_operations, named, count_comment=True))
        return 0

    def ppdef(self, args) -> int:
        c, tr = self.c, self.tr
        pairs = []
        for path in args.relations:
            pairs.extend(self.parse(c.parse_relations, path))
        with tr.span("ppformula.RelationEnv"):
            env = c.RelationEnv(pairs)
        gen_blocks = self.parse(c.parse_tuple_lists, args.gen)
        if not gen_blocks:
            raise ValueError(f"no generating system found in {args.gen}")
        _, gen_domain, rows = gen_blocks[0]
        with tr.span("synthesis.dedup_rows"):
            gen = c.dedup_rows(rows, gen_domain)
        with tr.span("synthesis.synthesize_ppdef") as s:
            result = c.synthesize_ppdef(env, gen, row_budget=args.row_budget)
            s["counts"].update(
                rows=result.row_count, atoms=sum(result.atom_counts.values()),
                selections=sum(len(rel.tuples) ** gen.n for rel in env.values()))
        with tr.span("ppformula.emit_text"):
            out_text = result.stats_line() + "\n" + c.emit_text(result.formula)
        _write(args.out, out_text)
        print(result.stats_line(), file=sys.stderr)

        goal = None
        if args.validate:
            goal_named = self.parse(c.parse_relations, args.validate)
            if not goal_named:
                raise ValueError(f"no relation found in {args.validate}")
            goal = goal_named[0][1]
        if args.smt:
            smt_goal = goal if goal is not None else self.eval_formula(result.formula, env)
            with tr.span("ppformula.emit_smt") as s:
                smt = c.emit_smt(result.formula, env, smt_goal)
                s["counts"]["bytes"] = len(smt.encode("utf-8"))
            _write(args.smt, smt)
        if goal is not None:
            with tr.span("synthesis.validation_details") as s:
                ok, extra, missing = c.validation_details(result, env, goal)
            with tr.span(PROBE_BLOCK):
                self.eval_formula(result.formula, env, s["id"], True)
            if not ok:
                print(f"validation failed: {len(extra)} extra, {len(missing)} missing tuples",
                      file=sys.stderr)
                for t in extra[:10]:
                    print(f"  extra: {' '.join(map(str, t))}", file=sys.stderr)
                for t in missing[:10]:
                    print(f"  missing: {' '.join(map(str, t))}", file=sys.stderr)
                return 1
            print("validation passed", file=sys.stderr)
        return 0


COMMANDS = {"verify-snow": Replay.verify_snow, "centraliser": Replay.centraliser,
            "clone": Replay.clone, "ppdef": Replay.ppdef}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--job", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("job_argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    job_argv = opts.job_argv[1:] if opts.job_argv[:1] == ["--"] else opts.job_argv
    tracer = Tracer(opts.job, opts.workload)
    try:
        with tracer.span(f"cli.{job_argv[0]}", start=_START):
            replay = Replay(tracer, opts.seed)
            from cloneops.cli import build_parser
            from cloneops.core import CapExceeded
            args = build_parser().parse_args(job_argv)
            if args.command not in COMMANDS:
                raise SystemExit(f"replay: no replay for '{args.command}'")
            try:
                return COMMANDS[args.command](replay, args)
            except CapExceeded as err:
                print(f"error: {err}", file=sys.stderr)
                return 3
            except (ValueError, OSError) as err:  # includes the parser's FormatError
                print(f"error: {err}", file=sys.stderr)
                return 2
    finally:
        Path(opts.spans).write_text(json.dumps(tracer.spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
