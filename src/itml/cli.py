"""Command-line driver: run, trace, slice, forward-slice, oracle, REPL.

Exit codes are a stable contract: 0 success, 1 slicer/criterion validation
failure, 2 I/O or parse error, 3 shape mismatch between inputs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading

from .frontend import (
    CriterionError, ElabError, SourceError, elaborate,
    parse_criterion, parse_program, render_slice, slice_regions,
)
from .interp import (
    RunRecord, StuckError, TraceParseError, dump_trace, eval_comp, load_trace,
)
from .oracle import (
    check_adjunction, check_join_preservation, check_meet_preservation,
    check_minimality_all, generate_run, input_lattice_size,
)
from .slicer import (
    Criterion, ShapeMismatchError, bwd_comp, fwd_comp, validate_criterion,
)
from .syntax import (
    ArrayCell, Comp, EMPTY_ENV, EMPTY_STORE, ScalarCell, Trace, VArr, VLoc,
    render_result, render_value,
)

EXIT_OK = 0
EXIT_SLICE = 1
EXIT_IO = 2
EXIT_SHAPE = 3

_STACK_BYTES = 512 * 1024 * 1024
_RECURSION_LIMIT = 3_000_000


def run_deep(fn, *args, **kwargs):
    """Run fn on a big-stack thread: traced evaluation and slicing recurse
    as deep as the dynamic nesting of the program (loops desugar to nested
    calls), far past the default interpreter limits."""
    result: list = [None]
    error: list = [None]

    def work():
        sys.setrecursionlimit(_RECURSION_LIMIT)
        try:
            result[0] = fn(*args, **kwargs)
        except BaseException as exc:  # re-raised on the calling thread
            error[0] = exc

    old = threading.stack_size(_STACK_BYTES)
    try:
        thread = threading.Thread(target=work, name="itml-deep")
        thread.start()
        thread.join()
    finally:
        threading.stack_size(old)
    if error[0] is not None:
        raise error[0]
    return result[0]


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc}") from exc


def _load_program(path: str):
    text = _read(path)
    try:
        program = parse_program(text)
        core, emap = elaborate(program)
    except (SourceError, ElabError) as exc:
        raise CliError(EXIT_IO, f"{path}: {exc}") from exc
    return text, core, emap


def _run_core(core: Comp) -> RunRecord:
    try:
        return run_deep(eval_comp, EMPTY_ENV, EMPTY_STORE, core)
    except StuckError as exc:
        raise CliError(EXIT_SLICE, f"evaluation got stuck: {exc}") from exc


def _store_summary(run: RunRecord) -> str:
    parts = []
    for name, value in run.top_bindings:
        if name.startswith("_"):
            continue
        if isinstance(value, VLoc):
            cell = run.out_store.cell(value.loc)
            if isinstance(cell, ScalarCell):
                parts.append(f"!{name}={render_value(cell.value)}")
        elif isinstance(value, VArr):
            cell = run.out_store.cell(value.loc)
            if isinstance(cell, ArrayCell):
                items = ",".join(render_value(cell.get(i)) for i in range(cell.length))
                parts.append(f"{name}=[{items}]")
    return " ".join(parts)


def cmd_run(args) -> int:
    _text, core, _emap = _load_program(args.file)
    run = _run_core(core)
    summary = _store_summary(run)
    line = render_result(run.result)
    if summary:
        line += "; " + summary
    print(line)
    return EXIT_OK


def cmd_trace(args) -> int:
    _text, core, _emap = _load_program(args.file)
    run = _run_core(core)
    dump = run_deep(dump_trace, run.trace) + "\n"
    if args.out == "-":
        sys.stdout.write(dump)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(dump)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write {args.out}: {exc}") from exc
    return EXIT_OK


def _trace_stats(trace: Trace) -> tuple:
    from .syntax import THole, trace_children

    nodes = holes = 0
    stack = [trace]
    while stack:
        node = stack.pop()
        nodes += 1
        if isinstance(node, THole):
            holes += 1
        stack.extend(trace_children(node))
    return nodes, holes


def _slice_run(core: Comp, criterion_text: str):
    run = _run_core(core)
    try:
        criterion = parse_criterion(criterion_text, run)
        validate_criterion(criterion, run)
    except (CriterionError, SourceError, ShapeMismatchError) as exc:
        raise CliError(EXIT_SLICE, f"bad criterion: {exc}") from exc
    return run, run_deep(bwd_comp, criterion, run.trace)


def cmd_slice(args) -> int:
    text, core, emap = _load_program(args.file)
    run, out = _slice_run(core, args.criterion)
    if args.format == "json":
        regions = [
            {"start": r.start, "end": r.end, "text": text[r.start:r.end]}
            for r in slice_regions(out.program, emap)
        ]
        nodes, holes = _trace_stats(out.trace)
        print(json.dumps({
            "result": render_result(run.result),
            "shaded": regions,
            "trace_nodes": nodes,
            "trace_holes": holes,
        }))
    else:
        print(render_slice(out.program, emap, text, color=args.color))
        nodes, holes = _trace_stats(out.trace)
        total, _ = _trace_stats(run.trace)
        print(f"-- trace: {nodes} nodes ({holes} holes) from {total}", file=sys.stderr)
    return EXIT_OK


def _print_fwd(store, result) -> None:
    print(render_result(result))
    for loc, cell in sorted(store.cells()):
        if isinstance(cell, ScalarCell):
            print(f"#{loc} = {render_value(cell.value)}")
        else:
            items = ",".join(render_value(cell.get(i)) for i in range(cell.length))
            print(f"#{loc} = [{items}]")


def cmd_fwd(args) -> int:
    _text, core, _emap = _load_program(args.file)
    trace_text = _read(args.trace)
    try:
        trace = run_deep(load_trace, trace_text)
    except TraceParseError as exc:
        raise CliError(EXIT_IO, f"bad trace file: {exc}") from exc
    try:
        store, result = run_deep(fwd_comp, EMPTY_ENV, EMPTY_STORE, core, trace)
    except ShapeMismatchError as exc:
        raise CliError(EXIT_SHAPE, f"program does not fit the trace: {exc}") from exc
    _print_fwd(store, result)
    return EXIT_OK


def cmd_oracle(args) -> int:
    rng = random.Random(args.seed_base)
    failures = []
    for seed in range(args.seeds):
        run = generate_run(seed + args.seed_base, max_budget=args.budget, cap=args.cap)
        checks = {"adjunction": check_adjunction(run, args.cap)}
        if args.minimality:
            checks["minimality"] = check_minimality_all(run, args.cap)
        checks["meet"] = check_meet_preservation(run, rng, 20, args.cap)
        checks["join"] = check_join_preservation(run, rng, 15, args.cap)
        bad = [c for c in checks.values() if c is not None]
        record = {
            "seed": seed + args.seed_base,
            "lattice": input_lattice_size(run),
            "ok": not bad,
            "checks": list(checks),
        }
        if bad:
            record["counterexamples"] = [str(c) for c in bad]
            record["trace"] = dump_trace(run.trace)
            failures.append(record)
        if args.format == "json":
            print(json.dumps(record))
        else:
            mark = "ok" if not bad else "FAIL"
            print(f"seed {record['seed']}: {mark} (lattice {record['lattice']})")
            for c in bad:
                print(f"  {c}")
                print(dump_trace(run.trace))
    summary = {"seeds": args.seeds, "failures": len(failures)}
    if args.format == "json":
        print(json.dumps(summary))
    else:
        print(f"-- {args.seeds} seeds, {len(failures)} failures")
    return EXIT_OK if not failures else EXIT_SLICE


def cmd_repl(args) -> int:
    state: dict = {"text": None, "core": None, "emap": None, "run": None}
    print("itml repl -- :load FILE, :run, :slice CRIT, :fwd FILE, :quit")
    while True:
        try:
            line = input("itml> ").strip()
        except EOFError:
            print()
            return EXIT_OK
        if not line:
            continue
        try:
            if line == ":quit":
                return EXIT_OK
            elif line.startswith(":load"):
                path = line.split(None, 1)[1]
                state["text"], state["core"], state["emap"] = _load_program(path)
                state["run"] = None
                print(f"loaded {path}")
            elif line == ":run":
                _need(state, "text")
                state["run"] = _run_core(state["core"])
                summary = _store_summary(state["run"])
                print(render_result(state["run"].result) + ("; " + summary if summary else ""))
            elif line.startswith(":slice"):
                _need(state, "text")
                crit = line.split(None, 1)[1] if " " in line else ""
                _run, out = _slice_run(state["core"], crit)
                print(render_slice(out.program, state["emap"], state["text"]))
            elif line.startswith(":fwd"):
                _need(state, "text")
                if state["run"] is None:
                    state["run"] = _run_core(state["core"])
                path = line.split(None, 1)[1]
                _ptext, pcore, _pemap = _load_program(path)
                _print_fwd(*run_deep(
                    fwd_comp, EMPTY_ENV, EMPTY_STORE, pcore, state["run"].trace))
            else:
                # evaluate a one-off program text
                program = parse_program(line)
                core, _emap = elaborate(program)
                run = _run_core(core)
                print(render_result(run.result))
        except CliError as exc:
            print(f"error: {exc}")
        except (SourceError, ElabError, ShapeMismatchError, CriterionError) as exc:
            print(f"error: {exc}")
    return EXIT_OK


def _need(state: dict, key: str) -> None:
    if state[key] is None:
        raise CliError(EXIT_IO, "no program loaded (use :load FILE)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itml",
        description="Traced interpreter and dynamic slicer for an imperative ML-like core language",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="evaluate a program and print result + store summary")
    p.add_argument("file")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("trace", help="evaluate and write the trace dump")
    p.add_argument("file")
    p.add_argument("out", help="output path, or - for stdout")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("slice", help="backward-slice a run against a criterion")
    p.add_argument("file")
    p.add_argument("criterion", nargs="?", default="")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--color", action="store_true", help="ANSI shading instead of markers")
    p.set_defaults(fn=cmd_slice)

    p = sub.add_parser("fwd", help="forward-slice a partial program along a trace dump")
    p.add_argument("file", help="program, possibly with _ holes")
    p.add_argument("trace", help="trace dump written by `itml trace`")
    p.set_defaults(fn=cmd_fwd)

    p = sub.add_parser(
        "oracle", help="brute-force adjunction/minimality and sampled meet/join checks")
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--budget", type=int, default=3)
    p.add_argument("--cap", type=int, default=4096)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--no-minimality", dest="minimality", action="store_false")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("repl", help="interactive loop")
    p.set_defaults(fn=cmd_repl)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"itml: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
