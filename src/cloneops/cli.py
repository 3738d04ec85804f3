"""Command-line front end.

Exit codes: 0 success / all checks passed, 1 a verification or validation
check failed, 2 input or parse error, 3 a resource cap was exceeded.
"""
from __future__ import annotations

import argparse
import gc
import inspect
import sys
from pathlib import Path
from typing import Iterable

from . import __version__
from .core import CapExceeded, OperationSet, graph_of
from .commutation import DEFAULT_BUDGET, enumerate_centraliser
from .clonegen import FRAGMENT_CAP, clone_fragment
from .ppformula import RelationEnv, emit_smt, emit_text, eval_formula, parse_formula
from .snow import snow_f, snow_pp_formula, snow_t, verify_separation
from .synthesis import ROW_BUDGET, dedup_rows, synthesize_ppdef, validation_details
from .textio import (FormatError, operation_blocks, operation_set_blocks, parse_operations,
                     parse_relations, parse_tuple_lists, relation_blocks)


def _write(path: str | None, text: str | Iterable):
    """Write text, or each chunk of an iterable in turn, to path or stdout:
    str chunks encoded as UTF-8, bytes-like chunks as they are.  A chunk is
    let go once written, before the next one is made."""
    chunks = [text] if isinstance(text, str) else text
    if path is None:
        sys.stdout.flush()
        _write_chunks(sys.stdout.buffer, chunks)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as out:
            _write_chunks(out, chunks)


def _write_chunks(out, chunks):
    for chunk in chunks:
        out.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        del chunk


def _load_operation_set(path: str) -> OperationSet:
    named = parse_operations(Path(path).read_text(encoding="utf-8"))
    if not named:
        raise ValueError(f"no operations found in {path}")
    domain = named[0][1].domain
    return OperationSet.from_operations(domain, [op for _, op in named])


def _load_env(paths) -> RelationEnv:
    pairs = []
    for path in paths:
        pairs.extend(parse_relations(Path(path).read_text(encoding="utf-8")))
    return RelationEnv(pairs)


def cmd_snow(args) -> int:
    k = args.k
    f_op = snow_f(k)
    formula = snow_pp_formula(k)
    if args.emit_t:
        _write(args.emit_t, operation_blocks([("T", snow_t(k))]))
    if args.emit_f:
        _write(args.emit_f, operation_blocks([("f", f_op)]))
    if args.emit_graph_t:
        _write(args.emit_graph_t, relation_blocks([("T", graph_of(snow_t(k)))]))
    if args.emit_graph_f:
        _write(args.emit_graph_f, relation_blocks([("f", graph_of(f_op))]))
    if args.emit_formula:
        _write(args.emit_formula, emit_text(formula))
    print(f"k={k}: T has arity {(k - 1) ** 2}, f has arity {k - 1}, "
          f"formula uses {len(formula.atoms)} atoms and "
          f"{len(formula.exist_vars)} existential variables")
    return 0


def cmd_verify_snow(args) -> int:
    report = verify_separation(args.k, mode=args.mode, samples=args.samples,
                               seed=args.seed)
    text = report.render()
    text += f"# argv: verify-snow --k {args.k} --mode {args.mode}\n"
    if args.report:
        _write(args.report, text)
    sys.stdout.write(text)
    return 0 if report.passed else 1


def cmd_centraliser(args) -> int:
    fs = _load_operation_set(args.ops)
    result = enumerate_centraliser(fs, args.arity, budget=args.budget,
                                   threads=args.threads)
    _write(args.out, operation_set_blocks(result, args.arity))
    print(f"{result.count(args.arity)} operations of arity {args.arity} "
          f"commute with all {len(fs)} given operations", file=sys.stderr)
    return 0


def cmd_clone(args) -> int:
    gens = _load_operation_set(args.ops)
    fragment = clone_fragment(gens, args.arity, cap=args.cap)
    _write(args.out, operation_set_blocks(fragment, args.arity))
    return 0


def cmd_ppdef(args) -> int:
    env = _load_env(args.relations)
    gen_blocks = parse_tuple_lists(Path(args.gen).read_text(encoding="utf-8"))
    if not gen_blocks:
        raise ValueError(f"no generating system found in {args.gen}")
    _, gen_domain, rows = gen_blocks[0]
    gen = dedup_rows(rows, gen_domain)
    result = synthesize_ppdef(env, gen, row_budget=args.row_budget)
    out_text = result.stats_line() + "\n" + emit_text(result.formula)
    _write(args.out, out_text)
    print(result.stats_line(), file=sys.stderr)

    goal = None
    if args.validate:
        goal_named = parse_relations(Path(args.validate).read_text(encoding="utf-8"))
        if not goal_named:
            raise ValueError(f"no relation found in {args.validate}")
        goal = goal_named[0][1]
    if args.smt:
        smt_goal = goal if goal is not None else eval_formula(result.formula, env)
        _write(args.smt, emit_smt(result.formula, env, smt_goal))
    if goal is not None:
        ok, extra, missing = validation_details(result, env, goal)
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


def cmd_eval_formula(args) -> int:
    formula = parse_formula(Path(args.formula).read_text(encoding="utf-8"))
    env = _load_env(args.relations)
    result = eval_formula(formula, env)
    _write(args.out, relation_blocks([("result", result)]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloneops",
        description="clone computations over finite domains")
    parser.add_argument("--version", action="version", version=f"cloneops {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snow", help="emit the separating operation, function and formula")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit-t")
    p.add_argument("--emit-f")
    p.add_argument("--emit-graph-t")
    p.add_argument("--emit-graph-f")
    p.add_argument("--emit-formula")
    p.set_defaults(func=cmd_snow)

    p = sub.add_parser("verify-snow", help="verify the separating construction")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["full", "witness"], default="full")
    p.add_argument("--report")
    p.add_argument("--samples", type=int,
                   default=inspect.signature(verify_separation).parameters["samples"].default)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_snow)

    p = sub.add_parser("centraliser", help="enumerate a centraliser slice")
    p.add_argument("--ops", required=True)
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_centraliser)

    p = sub.add_parser("clone", help="generate an n-ary clone fragment")
    p.add_argument("--ops", required=True)
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--cap", type=int, default=FRAGMENT_CAP)
    p.set_defaults(func=cmd_clone)

    p = sub.add_parser("ppdef", help="synthesize a primitive positive definition")
    p.add_argument("--relations", nargs="+", required=True)
    p.add_argument("--gen", required=True)
    p.add_argument("--out")
    p.add_argument("--smt")
    p.add_argument("--validate")
    p.add_argument("--row-budget", type=int, default=ROW_BUDGET)
    p.set_defaults(func=cmd_ppdef)

    p = sub.add_parser("eval-formula", help="evaluate a formula over named relations")
    p.add_argument("--formula", required=True)
    p.add_argument("--relations", nargs="+", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_formula)
    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main():
    # What the imports built lives until exit: frozen, it is skipped by every
    # collection in the job and by the one at interpreter shutdown.
    gc.freeze()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
