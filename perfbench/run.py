"""afkit benchmark: one workload, one seed, one measurement window.

    python3 perfbench/run.py --workload exact-community --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing needs installing. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics from
a traced window, plus the tracing overhead against an untraced pass made in
the same process. Every line before the last is for people: an environment
stamp and a table of every metric with its unit and sample count. The last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Scratch files go to ``.perfbench/`` in the checkout; traces are
kept in ``.perfbench/traces/``.

The workloads, metrics and what each per-layer metric should move are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# At least this many set-ups, more while they have taken less than
# SETUP_MIN_SECONDS: the median then outlasts a burst of machine noise.
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPEATS = 1000
CLI_PROBE_RUNS = 5
ENGINE_PROBE_BUDGET = 0.1  # seconds per framework and generator
ENGINE_PROBE_FRAMEWORKS = 16


def use_checkout_sources() -> bool:
    """Import afkit from this checkout's ``src/``, here and in the solver
    processes the runner starts. False when the sources are missing."""
    if not (SRC / "afkit" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return True


def main(argv: list[str] | None = None) -> int:
    if not use_checkout_sources():
        print(f"perfbench: no afkit sources under {SRC}", file=sys.stderr)
        return 2
    import workloads  # after the path is set: it imports afkit

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    stamp = environment_stamp(args)
    print("# " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    try:
        result = measure(workload, work, args.seconds, bool(args.trace), stamp)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def environment_stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": "/".join(f"{x:.2f}" for x in os.getloadavg()),
    }


def measure(workload, work: Path, seconds: float, traced: bool, stamp: dict) -> dict:
    import workloads

    if not traced:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or (
            sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
        ):
            setup_times.append(timed_setup(workload, work / "inputs", None))
        window = workload.run(seconds, tracing.no_span)
        workload.judge(window)
        metrics = end_to_end(window, setup_times)
    else:
        tracer = tracing.Tracer()
        timed_setup(workload, work / "inputs", tracer)
        # A warm-up pass, so that the first pass's one-off costs (cold
        # caches, heap growth) do not land on the untraced reference pass.
        workload.run(0, tracing.no_span)
        untraced = workload.run(0, tracing.no_span)
        with tracing.instrument(tracer, layer_hooks()):
            window = workload.run(seconds, tracer.span)
        workload.judge(window)
        metrics = per_layer(tracer, window, untraced, workload)
        metrics.update(engine_probe(workload))
        metrics.update(cli_probe(work))
        name = f"{workload.name}-seed{stamp['seed']}.jsonl"
        tracer.write(ROOT / ".perfbench" / "traces" / name, stamp)

    counts = defaultdict(int)
    for s in window.samples:
        counts[s.outcome] += 1
    failed = sum(1 for s in window.samples if s.failed)
    print(
        "# outcomes: "
        + " ".join(f"{o}={counts[o]}" for o in workloads.OUTCOMES)
        + f" unverified={window.unverified} failed={failed}"
    )
    for note in window.notes:
        print(f"# {note}")
    for key, (value, unit, samples) in metrics.items():
        print(f"{key:<28} {value:>16.6f} {unit:<8} n={samples}")
    return {
        "correct": failed == 0,
        "attempted": len(window.samples),
        "failed": failed,
        "metrics": {key: {"value": v, "unit": u} for key, (v, u, _) in metrics.items()},
    }


def timed_setup(workload, inputs: Path, tracer) -> float:
    """Build the inputs; a repeated set-up overwrites the same files rather
    than creating and deleting them, which would time the file system."""
    start = time.perf_counter()
    if tracer is None:
        workload.setup(inputs)
    else:
        with tracing.instrument(tracer, layer_hooks()):
            workload.setup(inputs)
    return time.perf_counter() - start


def end_to_end(window, setup_times: list[float]) -> dict:
    import workloads

    times = [s.seconds for s in window.samples]
    n = len(times)
    deciles = statistics.quantiles(times, n=10) if n > 1 else times * 9
    per_op = defaultdict(list)
    for s in window.samples:
        cost = s.seconds if s.outcome == workloads.CORRECT else 2 * window.budgets[s.key]
        per_op[s.key].append(cost)
    solved = sum(1 for s in window.samples if s.outcome == workloads.CORRECT)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "ops_per_s": (n / window.wall, "1/s", n),
        "op_s.p50": (statistics.median(times), "s", n),
        "op_s.p90": (deciles[8], "s", n),
        "par2_s": (sum(statistics.median(c) for c in per_op.values()), "s", len(per_op)),
        "solved_frac": (solved / n, "1", n),
        "peak_rss_mb": (window.peak_rss_mb, "MB", 1),
    }


def layer_hooks():
    """Library attributes wrapped in spans during the traced window."""
    from afkit import approx, benchgen, engine, formats, harness

    def parsed_bytes(text, fmt):
        return {"bytes": len(text)}

    def built_attacks(names, attacks=()):
        return {"attacks": len(attacks)}

    def solved_task(af, task, budget=None):
        return {"task": task.label}

    return [
        (formats, "parse_framework", "formats.parse", parsed_bytes),
        (harness, "parse_framework", "formats.parse", parsed_bytes),
        (formats, "ArgumentationFramework", "framework.build", built_attacks),
        (formats, "write_answer", "formats.write_answer", None),
        (formats, "serialize_framework", "formats.serialize", None),
        (benchgen, "serialize_framework", "formats.serialize", None),
        (harness, "parse_answer", "formats.parse_answer", None),
        (approx, "grounded_extension", "approx.grounded", None),
        (approx, "approx_decide", "approx.decide", None),
        (engine, "solve", "engine.solve", solved_task),
        (harness, "run_competition", "harness.competition", None),
        (harness, "execute_solver", "harness.run", None),
        (harness, "classify", "harness.classify", None),
        (harness.Validator, "validate", "harness.validate", None),
        (harness, "write_runlog", "harness.runlog", None),
        (harness, "read_runlog", "harness.runlog", None),
        (harness, "score", "harness.score", None),
        (benchgen, "generate", "benchgen.generate", None),
        (benchgen, "write_instance", "benchgen.write", None),
    ]


SEMANTICS = ("CO", "PR", "ST", "SST", "STG", "ID")
PROBLEMS = ("CE", "SE", "DC", "DS")


def per_layer(tracer, window, untraced, workload) -> dict:
    """Per-layer metrics from the spans of the traced window.

    Times are self times (a span's duration minus its children's), averaged
    per call; a layer the workload never calls reports 0 with n=0.
    """
    spans = tracer.spans
    own = tracing.self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    by_id = {s.id: s for s in spans}

    def mean_self(name, keep=lambda s: True):
        values = [own[s.id] for s in by_name[name] if keep(s)]
        return (statistics.fmean(values) if values else 0.0, "s", len(values))

    def rate(name, attr, unit, scale=1.0):
        total = sum(own[s.id] for s in by_name[name])
        amount = sum(s.attrs.get(attr, 0) for s in by_name[name])
        return (amount / total / scale if total else 0.0, unit, len(by_name[name]))

    def reference(s):
        parent = by_id.get(s.parent)
        return parent is not None and parent.name == "harness.validate"

    ops = len(window.samples)
    m = {
        "formats.parse_s": mean_self("formats.parse"),
        "formats.parse_mb_per_s": rate("formats.parse", "bytes", "MB/s", 1e6),
        "formats.write_answer_s": mean_self("formats.write_answer"),
        "formats.serialize_s": mean_self("formats.serialize"),
        "formats.parse_answer_s": mean_self("formats.parse_answer"),
        "framework.build_s": mean_self("framework.build"),
        "framework.attacks_per_s": rate("framework.build", "attacks", "1/s"),
        "approx.grounded_s": mean_self("approx.grounded"),
        "approx.grounded_calls": (len(by_name["approx.grounded"]) / ops, "1/op", ops),
        "approx.decide_s": mean_self("approx.decide"),
        "engine.solve_s": mean_self("engine.solve"),
    }
    for sem in SEMANTICS:
        m[f"engine.solve_s.{sem}"] = mean_self(
            "engine.solve", lambda s, x=sem: s.attrs["task"].endswith(f"-{x}")
        )
    for prob in PROBLEMS:
        m[f"engine.solve_s.{prob}"] = mean_self(
            "engine.solve", lambda s, x=prob: s.attrs["task"].startswith(f"{x}-")
        )
    # Distinct ops that hit the budget; the window runs every op at least once.
    op_keys = {s.id: s.attrs.get("key") for s in spans if s.parent is None}
    timed_out = {
        op_keys[s.op]
        for s in by_name["engine.solve"]
        if s.attrs.get("error") == "SolverTimeoutError"
    }
    m["engine.timeouts"] = (len(timed_out), "count", len(set(op_keys.values()) - {None}))

    competition = sum(s.seconds for s in by_name["harness.competition"])
    main_thread = by_name["harness.competition"][0].thread if competition else None
    worker_busy = sum(s.seconds for s in spans if s.parent is None and s.thread != main_thread)
    m.update(
        {
            "harness.run_s": mean_self("harness.run"),
            "harness.validate_s": mean_self("harness.validate"),
            "harness.reference_s": mean_self("engine.solve", reference),
            "harness.classify_s": mean_self("harness.classify"),
            "harness.worker_busy_frac": (
                worker_busy / (workload.clients * competition) if competition else 0.0,
                "1",
                len(by_name["harness.competition"]),
            ),
            "harness.score_s": mean_self("harness.score"),
            "harness.runlog_s": mean_self("harness.runlog"),
            "benchgen.generate_s": mean_self("benchgen.generate"),
            "benchgen.write_s": mean_self("benchgen.write"),
        }
    )
    traced_rate = ops / window.wall
    untraced_rate = len(untraced.samples) / untraced.wall
    m["trace.ops_per_s"] = (traced_rate, "1/s", ops)
    m["trace.untraced_ops_per_s"] = (untraced_rate, "1/s", len(untraced.samples))
    m["trace.overhead_frac"] = (untraced_rate / traced_rate - 1, "1", ops)
    return m


def engine_probe(workload) -> dict:
    """Rate of the public search generators on the workload's frameworks,
    each iterated under a small budget. Separates fewer nodes from cheaper
    nodes until the engine has counters of its own."""
    from afkit import engine

    found = {"labellings": [0, 0.0], "cf_sets": [0, 0.0]}
    generators = {"labellings": engine.complete_labellings, "cf_sets": engine.conflict_free_sets}
    frameworks = workload.frameworks()[:ENGINE_PROBE_FRAMEWORKS]
    for af in frameworks:
        for kind, generator in generators.items():
            start = time.perf_counter()
            count = 0
            try:
                for _ in generator(af, start + ENGINE_PROBE_BUDGET):
                    count += 1
            except (engine.SolverTimeoutError, RecursionError):
                pass  # the budget ran out, or the search outgrew the stack
            found[kind][0] += count
            found[kind][1] += time.perf_counter() - start
    n = len(frameworks)
    (labellings, lab_time), (cf_sets, cf_time) = found["labellings"], found["cf_sets"]
    return {
        "engine.labellings_per_s": (labellings / lab_time, "1/s", n),
        "engine.cf_sets_per_s": (cf_sets / cf_time, "1/s", n),
        "engine.extensions": (labellings, "count", n),
    }


def cli_probe(work: Path) -> dict:
    """Start-up cost of one ``af-solver`` process on a 2-argument file,
    against a bare interpreter; the median of alternating runs each."""
    from afkit import harness

    tiny = work / "tiny.apx"
    tiny.write_text("arg(a).\narg(b).\natt(a,b).\n")
    commands = {
        "cli.startup_s": [
            *harness.builtin_solver_command("@builtin-exact"),
            *("-p", "SE-CO", "-f", str(tiny), "-fo", "apx"),
        ],
        "cli.interp_s": [sys.executable, "-c", "pass"],
    }
    times = defaultdict(list)
    for _ in range(CLI_PROBE_RUNS):
        for name, argv in commands.items():
            start = time.perf_counter()
            subprocess.run(argv, check=True, capture_output=True, timeout=60)
            times[name].append(time.perf_counter() - start)
    return {name: (statistics.median(t), "s", len(t)) for name, t in times.items()}


if __name__ == "__main__":
    sys.exit(main())
