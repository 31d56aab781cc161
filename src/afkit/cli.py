"""Command-line front ends.

``af-solver`` (also ``python -m afkit.cli``) is a solver speaking the
standard competition interface: ``-p TASK-SEM -f file -fo tgf|apx
[-a query]``, one answer on standard output, diagnostics on standard error.
``af-toolbox`` (also ``python -m afkit``) bundles the benchmark generator,
the competition runner, the scorer, and an engine-versus-oracle check. Each
toolbox command imports the runner, generator or oracle when it runs, so the
solver path, started once per competition task, imports only the solver
modules.

Solver exit codes: 0 answer printed, 1 usage error, 2 input file unreadable,
not valid text (such as non-UTF-8 bytes) or not parsable, 3 illegal task,
4 budget exceeded, 5 internal error (a one-line message on standard error,
no traceback).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .approx import approx_decide
from .engine import SolverTimeoutError, solve
from .formats import INPUT_FORMATS, ParseError, parse_framework, write_answer
from .tasks import (
    EXTERNAL_SEMANTICS,
    IllegalTaskError,
    Problem,
    Semantics,
    TaskSpec,
    UnknownArgumentError,
    approximate_track_tasks,
    exact_track_tasks,
    parse_task,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_ILLEGAL_TASK = 3
EXIT_TIMEOUT = 4
EXIT_INTERNAL = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on errors; the solver interface wants 1.
    def error(self, message: str):
        raise _UsageError(message)


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _task_labels(mode: str) -> list[str]:
    pairs = exact_track_tasks() if mode == "exact" else approximate_track_tasks()
    labels = [f"{p.value}-{s.value}" for p, s in pairs]
    if mode == "exact":
        labels.append("DC-ID")  # accepted and answered as DS-ID
    return labels


def solver_main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="af-solver", description="argumentation solver", add_help=True)
    parser.add_argument("-p", metavar="TASK", help="task, e.g. SE-CO or DC-PR")
    parser.add_argument("-f", metavar="FILE", help="input file")
    parser.add_argument("-fo", metavar="FORMAT", help="input format: tgf or apx")
    parser.add_argument("-a", metavar="ARG", help="query argument for DC/DS")
    parser.add_argument(
        "--mode",
        choices=("exact", "approx"),
        default="exact",
        help="exact search or polynomial approximation (default exact)",
    )
    parser.add_argument(
        "--timeout", type=float, metavar="SECONDS", help="wall-clock budget for exact solving"
    )
    parser.add_argument("--formats", action="store_true", help="list input formats and exit")
    parser.add_argument("--problems", action="store_true", help="list supported tasks and exit")
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail(f"af-solver: {exc}", EXIT_USAGE)

    if args.formats:
        print("[" + ",".join(sorted(INPUT_FORMATS)) + "]")
        return EXIT_OK
    if args.problems:
        print("[" + ",".join(_task_labels(args.mode)) + "]")
        return EXIT_OK

    if not args.p or not args.f or not args.fo:
        return _fail("af-solver: -p, -f and -fo are required", EXIT_USAGE)
    if args.fo not in INPUT_FORMATS:
        return _fail(f"af-solver: unsupported format {args.fo!r}", EXIT_USAGE)
    try:
        task = parse_task(args.p, args.a)
    except ValueError as exc:
        return _fail(f"af-solver: {exc}", EXIT_USAGE)

    try:
        text = Path(args.f).read_text()
    except OSError as exc:
        return _fail(f"af-solver: cannot read {args.f}: {exc}", EXIT_PARSE)
    except UnicodeDecodeError as exc:
        return _fail(f"af-solver: {args.f}: {exc}", EXIT_PARSE)
    try:
        af = parse_framework(text, args.fo)
    except ParseError as exc:
        return _fail(f"af-solver: {args.f}: {exc}", EXIT_PARSE)

    try:
        if args.mode == "approx":
            answer = approx_decide(af, task)
        else:
            answer = solve(af, task, args.timeout)
    except (IllegalTaskError, UnknownArgumentError) as exc:
        return _fail(f"af-solver: {exc}", EXIT_ILLEGAL_TASK)
    except SolverTimeoutError as exc:
        return _fail(f"af-solver: {exc}", EXIT_TIMEOUT)
    except Exception as exc:
        return _fail(f"af-solver: internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL)

    sys.stdout.write(write_answer(answer))
    sys.stdout.flush()
    return EXIT_OK


def _cmd_generate(args) -> int:
    from . import benchgen

    config = benchgen.parse_config(Path(args.config).read_text())
    instances = benchgen.generate_corpus(config, args.count, Path(args.out))
    print(f"wrote {len(instances)} instances to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_run(args) -> int:
    from . import harness

    solvers = harness.load_solver_manifest(Path(args.solvers))
    instances = harness.discover_instances(Path(args.instances))
    if not instances:
        print(f"af-toolbox run: no instances in {args.instances}", file=sys.stderr)
        return 1
    track = "exact" if args.track == "exact" else "approximate"
    subtracks = _parse_subtracks(args.subtracks)
    config = harness.TrackConfig(track, subtracks, time_limit=args.timeout)
    stderr_dir = Path(args.out).with_suffix(".stderr") if args.capture_stderr else None
    records = harness.run_competition(
        solvers, instances, config, fmt=args.fo, workers=args.workers, stderr_dir=stderr_dir
    )
    harness.write_runlog(Path(args.out), records, config)
    print(f"wrote {len(records)} run records to {args.out}", file=sys.stderr)
    return EXIT_OK


def _parse_subtracks(text: str | None) -> tuple[Semantics, ...]:
    if not text:
        return EXTERNAL_SEMANTICS
    chosen = []
    for part in text.split(","):
        part = part.strip().upper()
        matching = [s for s in EXTERNAL_SEMANTICS if s.value == part]
        if not matching:
            raise ValueError(f"unknown subtrack {part!r}")
        chosen.append(matching[0])
    return tuple(chosen)


def _cmd_score(args) -> int:
    from . import harness

    records, meta = harness.read_runlog(Path(args.runlog))
    track = args.track or meta.get("track")
    if track not in harness.TRACKS:
        print("af-toolbox score: pass --track exact|approximate", file=sys.stderr)
        return 1
    subtracks = _parse_subtracks(args.subtracks or meta.get("subtracks"))
    board = harness.score(records, harness.TrackConfig(track, subtracks))
    report = board.format_report()
    if args.out:
        Path(args.out).write_text(report)
    else:
        sys.stdout.write(report)
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    from . import harness
    from .oracle import BruteForceOracle

    instances = harness.discover_instances(Path(args.instances))
    if not instances:
        print(f"af-toolbox oracle-check: no instances in {args.instances}", file=sys.stderr)
        return 1
    mismatches = 0
    checked = 0
    skipped = 0
    for inst in instances:
        af = harness.load_framework(inst)
        if af.n > args.max_args:
            skipped += 1
            continue
        oracle = BruteForceOracle(af, cap=args.max_args)
        for problem, semantics in exact_track_tasks():
            task = TaskSpec(problem, semantics, inst.query)
            if task.problem in (Problem.DC, Problem.DS) and inst.query is None:
                continue
            checked += 1
            got = solve(af, task)
            expected = oracle.answer(task)
            agrees = got == expected
            if task.problem is Problem.SE:
                # Any valid extension is a correct SE answer; compare sets.
                exts = oracle.extensions(task.semantics)
                if got.names is None:
                    agrees = not exts
                else:
                    agrees = af.mask_of(got.names) in exts
            if not agrees:
                mismatches += 1
                print(
                    f"mismatch: {inst.name} {task.label}: engine={got!r} oracle={expected!r}",
                    file=sys.stderr,
                )
    print(f"oracle-check: {checked} task answers compared, {mismatches} mismatches, {skipped} instances skipped")
    return EXIT_OK if mismatches == 0 else 1


def toolbox_main(argv: list[str] | None = None) -> int:
    from . import harness
    from .oracle import DEFAULT_CAP

    parser = _Parser(prog="af-toolbox", description="benchmark and competition toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate benchmark instances")
    p_gen.add_argument("--config", required=True, help="key=value generator configuration file")
    p_gen.add_argument("--count", type=int, required=True, help="number of instances")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=_cmd_generate)

    p_run = sub.add_parser("run", help="run solvers over an instance directory")
    p_run.add_argument("--track", choices=("exact", "approx", "approximate"), required=True)
    p_run.add_argument("--solvers", required=True, help="name=command manifest file")
    p_run.add_argument("--instances", required=True, help="instance directory")
    p_run.add_argument("--out", required=True, help="run log to write")
    p_run.add_argument("--subtracks", help="comma-separated semantics (default all six)")
    p_run.add_argument("--timeout", type=float, help="per-run limit, default 600/60 by track")
    p_run.add_argument("--workers", type=int, default=2)
    p_run.add_argument("--fo", choices=INPUT_FORMATS, default="apx", help="format handed to solvers")
    p_run.add_argument(
        "--capture-stderr", action="store_true", help="keep per-run solver stderr files"
    )
    p_run.set_defaults(func=_cmd_run)

    p_score = sub.add_parser("score", help="score a run log and print rankings")
    p_score.add_argument("--runlog", required=True)
    p_score.add_argument("--out", help="write the report here instead of stdout")
    p_score.add_argument("--track", choices=harness.TRACKS, help="override the log header")
    p_score.add_argument("--subtracks", help="comma-separated semantics (default all six)")
    p_score.set_defaults(func=_cmd_score)

    p_check = sub.add_parser("oracle-check", help="engine-versus-oracle differential")
    p_check.add_argument("--instances", required=True)
    p_check.add_argument("--max-args", type=int, default=DEFAULT_CAP)
    p_check.set_defaults(func=_cmd_oracle_check)

    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail(f"af-toolbox: {exc}", EXIT_USAGE)
    try:
        return args.func(args)
    except (ValueError, OSError, harness.SpawnFailureError, harness.ReferenceMissingError) as exc:
        return _fail(f"af-toolbox {args.command}: {exc}", 1)


if __name__ == "__main__":  # python -m afkit.cli is the solver front end
    sys.exit(solver_main())
