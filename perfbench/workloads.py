"""The three benchmark workloads and the checks on their answers.

Every workload builds its inputs from the seed, runs its ops in a closed
loop with a fixed number of clients, and judges every answer. An op's
outcome is one of ``correct``, ``wrong``, ``timeout`` or ``crash``. A
timeout is an answer missed within the budget, as in a competition. A wrong
answer or a crash is a failed op; a wrong answer never counts as a fast one.

* ``exact-community`` (1 client): every exact task on a benchgen corpus, the
  way ``af-solver`` does it minus the process. Loads the engine's search.
* ``large-sparse`` (1 client): approximate and grounded-based tasks on large
  acyclic sparse graphs and long chains, parsed fresh from apx and tgf text.
  Loads parsing, framework build and the grounded extension.
* ``competition-roundtrip`` (2 runner workers): the runner over both tracks
  with the built-in solvers as child processes, then the run log round trip
  and scoring. Loads process start-up, reference solving and validation.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from afkit import approx, benchgen, engine, formats, harness
from afkit.framework import ArgumentationFramework
from afkit.oracle import BruteForceOracle
from afkit.tasks import (
    EXTERNAL_SEMANTICS,
    Problem,
    Semantics,
    TaskSpec,
    approximate_track_tasks,
    exact_track_tasks,
    parse_task,
)

CORRECT, WRONG, TIMEOUT, CRASH = "correct", "wrong", "timeout", "crash"
OUTCOMES = (CORRECT, WRONG, TIMEOUT, CRASH)
ANSWERED = "answered"  # before judging

# Instances up to this size are checked against the brute-force oracle; its
# subset scan costs about a second at this size and grows as 2**n.
ORACLE_CAP = 16
# Budget for the checks' own searches (SE answers through the Validator).
CHECK_BUDGET = 30.0


@dataclass(frozen=True)
class Op:
    key: str
    budget: float  # seconds; a failed op counts 2 * budget in par2_s
    call: Callable[[], object]


@dataclass
class Sample:
    key: str
    seconds: float
    outcome: str
    answer: object = None
    failed: bool = False


@dataclass
class Window:
    """What one measurement window produced."""

    samples: list[Sample]
    wall: float  # seconds the clients were busy, summed over passes
    budgets: dict[str, float]  # op key -> budget
    peak_rss_mb: float
    unverified: int = 0
    notes: list[str] = field(default_factory=list)


def run_op(op: Op, span) -> Sample:
    start = time.perf_counter()
    try:
        with span("op", key=op.key):
            answer = op.call()
        outcome = ANSWERED
    except engine.SolverTimeoutError:
        answer, outcome = None, TIMEOUT
    except Exception as exc:  # noqa: BLE001 - any other error is a crash; the run goes on
        answer, outcome = f"{type(exc).__name__}: {exc}", CRASH
    return Sample(op.key, time.perf_counter() - start, outcome, answer, outcome == CRASH)


def closed_loop(ops: list[Op], seconds: float, rng: random.Random, span) -> Window:
    """One client: ops in a fresh shuffled order per pass, until ``seconds``
    have passed and every op has run at least once.

    Peak memory is read once every op has run: the allocator's high-water
    mark keeps creeping up over later passes, so a faster program, running
    more passes, would otherwise look hungrier.
    """
    samples: list[Sample] = []
    start = time.perf_counter()
    peak_rss_mb = None
    while True:
        for op in rng.sample(ops, len(ops)):
            if peak_rss_mb is not None and time.perf_counter() - start >= seconds:
                wall = time.perf_counter() - start
                return Window(samples, wall, {op.key: op.budget for op in ops}, peak_rss_mb)
            samples.append(run_op(op, span))
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def judge_samples(window: Window, verdict: Callable[[str, object], bool | None]) -> None:
    """Turn answered samples into correct or wrong.

    ``verdict(key, answer)`` returns True, False, or None when no check
    applies; unchecked answers count as correct and are tallied. Answers are
    deterministic, so each distinct (key, answer) pair is judged once.
    """
    seen: dict[tuple[str, str], bool | None] = {}
    for s in window.samples:
        if s.outcome != ANSWERED:
            continue
        memo = (s.key, repr(s.answer))
        if memo not in seen:
            seen[memo] = verdict(s.key, s.answer)
            if seen[memo] is None:
                window.unverified += 1
        ok = seen[memo] is not False
        s.outcome = CORRECT if ok else WRONG
        s.failed = not ok


def _solve_file(path: Path, fmt: str, task: TaskSpec, budget: float) -> str:
    """What ``af-solver`` does for one exact task, minus the process."""
    af = formats.parse_framework(path.read_text(), fmt)
    return formats.write_answer(engine.solve(af, task, budget))


def _decide_file(path: Path, fmt: str, task: TaskSpec) -> str:
    """What ``af-solver --mode approx`` does for one task, minus the process."""
    af = formats.parse_framework(path.read_text(), fmt)
    return formats.write_answer(approx.approx_decide(af, task))


def _validator_verdict(af, name: str, task: TaskSpec, answer) -> bool | None:
    try:
        return harness.Validator({name: af}, CHECK_BUDGET).validate(name, task, answer)
    except harness.ReferenceMissingError:
        return None


# --------------------------------------------------------------------------
# exact-community


@dataclass(frozen=True)
class CommunityGroup:
    """A slice of the corpus: benchgen settings and an instance count."""

    name: str
    count: int
    meta_n: int
    meta_p: float
    size_min: int
    size_max: int
    inner_p: float = 0.25


EXACT_SCALES = {
    # (per-op budget in seconds, groups). small: every task finishes and the
    # oracle checks every answer; medium: the four stage tasks hit the
    # budget, the rest finish; large: every task hits the budget. meta_p < 1
    # leaves some meta-graphs disconnected. The mix keeps each statistic
    # inside one group across seeds: the median op is a small-instance op,
    # and the 90th percentile lies among the timeouts (about 15 % of ops).
    "full": (
        0.05,
        (
            CommunityGroup("small", 48, 3, 0.5, 4, 4),
            CommunityGroup("medium", 8, 5, 0.4, 5, 6),
            CommunityGroup("large", 8, 10, 0.3, 12, 12),
        ),
    ),
    "tiny": (
        0.05,
        (
            CommunityGroup("small", 2, 3, 0.5, 3, 4),
            CommunityGroup("medium", 1, 4, 0.5, 4, 6),
        ),
    ),
}


@dataclass(frozen=True)
class Instance:
    name: str
    path: Path
    fmt: str
    query: str
    framework: ArgumentationFramework


class InProcess:
    """A workload whose ops are calls in this process, by one client."""

    clients = 1
    seed: int

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def run(self, seconds: float, span) -> Window:
        return closed_loop(self.ops(), seconds, random.Random(self.seed), span)


class ExactCommunity(InProcess):
    name = "exact-community"

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.budget, self.groups = EXACT_SCALES[scale]
        self.instances: list[Instance] = []

    def setup(self, work: Path) -> None:
        """Generate the corpus and write each instance in the one format its
        ops read (alternating, so both grammars are exercised)."""
        work.mkdir(parents=True, exist_ok=True)
        instances = []
        for g_index, group in enumerate(self.groups):
            config = benchgen.GeneratorConfig(
                seed=self.seed * len(self.groups) + g_index,
                meta_n=group.meta_n,
                meta_p=group.meta_p,
                inner_size_min=group.size_min,
                inner_size_max=group.size_max,
                inner_p=group.inner_p,
                name_prefix=group.name,
            )
            for index in range(group.count):
                generated = benchgen.generate(config, index)
                fmt = formats.INPUT_FORMATS[index % 2]
                path = work / f"{generated.name}.{fmt}"
                path.write_text(formats.serialize_framework(generated.framework, fmt))
                instances.append(
                    Instance(generated.name, path, fmt, generated.query, generated.framework)
                )
        self.instances = instances

    def frameworks(self) -> list[ArgumentationFramework]:
        return [inst.framework for inst in self.instances]

    def ops(self) -> list[Op]:
        ops = []
        for inst in self.instances:
            for problem, semantics in exact_track_tasks():
                task = TaskSpec(problem, semantics, inst.query)
                call = partial(_solve_file, inst.path, inst.fmt, task, self.budget)
                ops.append(Op(f"{inst.name}/{task.label}", self.budget, call))
        return ops

    def judge(self, window: Window) -> None:
        by_name = {inst.name: inst for inst in self.instances}
        verdicts: dict[str, bool | None] = {}
        answered: dict[str, dict[str, str]] = {}
        for s in window.samples:
            if s.outcome == ANSWERED:
                name, label = s.key.split("/")
                answered.setdefault(name, {}).setdefault(label, s.answer)
        for name, texts in answered.items():
            for label, ok in check_instance(by_name[name], texts).items():
                verdicts[f"{name}/{label}"] = ok

        def verdict(key: str, text: str) -> bool | None:
            name, label = key.split("/")
            if text != answered[name][label]:
                # A repeat run printed something else: judge it on its own.
                return check_instance(by_name[name], {label: text})[label]
            return verdicts[key]

        judge_samples(window, verdict)


def check_instance(inst: Instance, texts: dict[str, str]) -> dict[str, bool | None]:
    """Judge one instance's answer texts, keyed by task label.

    SE answers go through the Validator, which checks the semantics'
    defining predicate. Within the oracle cap, CE/DC/DS answers must equal
    the brute-force oracle's. Above it they must satisfy the cross-task laws
    that hold on every framework; an answer no applicable law covers is
    reported as unverified (None).
    """
    af = inst.framework
    answers = {}
    result: dict[str, bool | None] = {}
    for label, text in texts.items():
        task = parse_task(label, inst.query)
        try:
            answers[label] = formats.parse_answer(text, task.problem)
        except formats.AnswerFormatError:
            result[label] = False
    oracle = BruteForceOracle(af, ORACLE_CAP) if af.n <= ORACLE_CAP else None
    for label, answer in answers.items():
        task = parse_task(label, inst.query)
        if task.problem is Problem.SE:
            result[label] = _validator_verdict(af, inst.name, task, answer)
        elif oracle is not None:
            result[label] = answer == oracle.answer(task)
        else:
            result[label] = None
    if oracle is None:
        for labels, holds in _laws(af, inst.query, answers):
            for label in labels:
                if not holds:
                    result[label] = False
                elif result[label] is None:
                    result[label] = True
    return result


def _laws(af: ArgumentationFramework, query: str, answers: dict):
    """Yield (labels, holds) for every law whose tasks were all answered."""
    bit = 1 << af.index_of(query)
    grounded = approx.grounded_extension(af)

    def have(*labels):
        return all(label in answers for label in labels)

    def count(label):
        return answers[label].count

    def accepted(label):
        return answers[label].accepted

    def member(label):
        names = answers[label].names
        return names is not None and query in names

    if have("DS-CO"):
        yield ("DS-CO",), accepted("DS-CO") == bool(grounded & bit)
    if have("CE-ST", "CE-SST", "CE-CO"):
        yield ("CE-ST", "CE-SST", "CE-CO"), count("CE-ST") <= count("CE-SST") <= count("CE-CO")
    if have("CE-PR", "CE-CO"):
        yield ("CE-PR", "CE-CO"), count("CE-PR") <= count("CE-CO")
    if have("DC-CO", "DC-PR"):
        yield ("DC-CO", "DC-PR"), accepted("DC-CO") == accepted("DC-PR")
    # The exhibited extension bounds the acceptance answers: a member of it
    # is credulously accepted, and a skeptically accepted argument is in it.
    # Only the stable semantics can have no extension at all.
    for sem in ("CO", "PR", "ST", "SST", "STG"):
        se, dc, ds = f"SE-{sem}", f"DC-{sem}", f"DS-{sem}"
        none = have(se) and answers[se].names is None
        if have(se, dc):
            yield (se, dc), not accepted(dc) if none else (accepted(dc) or not member(se))
        if have(se, ds):
            yield (se, ds), accepted(ds) if none else (member(se) or not accepted(ds))
    if have("SE-ID", "DS-ID"):
        yield ("SE-ID", "DS-ID"), member("SE-ID") == accepted("DS-ID")


# --------------------------------------------------------------------------
# large-sparse


LARGE_SCALES = {
    # (layered sparse graph: arguments, attacks, layers), chain length,
    # budget of the exact tasks
    "full": ((10_000, 20_000, 8), 1_000, 10.0),
    "tiny": ((300, 600, 4), 60, 10.0),
}

EXACT_ON_LARGE = ("SE-CO", "DS-CO", "DC-CO")


def layered_sparse(rng: random.Random, n: int, m: int, layers: int) -> list[tuple[int, int]]:
    """``m`` distinct random attacks, each from an argument of one layer to an
    argument of the next, so the graph is acyclic.

    Acyclic frameworks have exactly one complete extension (the grounded
    one, which is also stable), so every semantics agrees and the exact
    search never branches. The grounded extension takes half as many rounds
    as there are layers whatever the seed, which keeps its cost steady.
    """
    size = n // layers
    arcs: set[tuple[int, int]] = set()
    while len(arcs) < m:
        layer = rng.randrange(layers - 1)
        a = layer * size + rng.randrange(size)
        arcs.add((a, (layer + 1) * size + rng.randrange(size)))
    return sorted(arcs)


def reference_grounded(n: int, arcs: list[tuple[int, int]]) -> set[int]:
    """Grounded extension by the linear counter algorithm, kept apart from
    the library's implementation so that it can check it."""
    attacked: list[list[int]] = [[] for _ in range(n)]
    live_attackers = [0] * n
    for a, b in arcs:
        attacked[a].append(b)
        live_attackers[b] += 1
    out = [False] * n
    accepted: set[int] = set()
    todo = [a for a in range(n) if live_attackers[a] == 0]
    while todo:
        a = todo.pop()
        accepted.add(a)
        for b in attacked[a]:
            if not out[b]:
                out[b] = True
                for c in attacked[b]:
                    live_attackers[c] -= 1
                    if live_attackers[c] == 0:
                        todo.append(c)
    return accepted


@dataclass(frozen=True)
class SparseShape:
    name: str
    framework: ArgumentationFramework
    arcs: list[tuple[int, int]]
    query: str
    paths: dict[str, Path]


class LargeSparse(InProcess):
    name = "large-sparse"

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.sparse, self.chain_n, self.budget = LARGE_SCALES[scale]
        self.shapes: list[SparseShape] = []

    def setup(self, work: Path) -> None:
        rng = random.Random(self.seed)
        graphs = [
            ("sparse", self.sparse[0], layered_sparse(rng, *self.sparse)),
            ("chain", self.chain_n, [(i, i + 1) for i in range(self.chain_n - 1)]),
        ]
        work.mkdir(parents=True, exist_ok=True)
        shapes = []
        for name, n, arcs in graphs:
            af = ArgumentationFramework([f"a{i}" for i in range(n)], arcs)
            paths = {}
            for fmt in formats.INPUT_FORMATS:
                paths[fmt] = work / f"{name}.{fmt}"
                paths[fmt].write_text(formats.serialize_framework(af, fmt))
            query = af.names[rng.randrange(n)]
            shapes.append(SparseShape(name, af, arcs, query, paths))
        self.shapes = shapes

    def frameworks(self) -> list[ArgumentationFramework]:
        return [shape.framework for shape in self.shapes]

    def ops(self) -> list[Op]:
        ops = []
        for shape in self.shapes:
            for fmt, path in shape.paths.items():
                for problem, semantics in approximate_track_tasks():
                    task = TaskSpec(problem, semantics, shape.query)
                    key = f"{shape.name}/{fmt}/approx/{task.label}"
                    ops.append(Op(key, self.budget, partial(_decide_file, path, fmt, task)))
                for label in EXACT_ON_LARGE:
                    task = parse_task(label, shape.query)
                    key = f"{shape.name}/{fmt}/exact/{label}"
                    call = partial(_solve_file, path, fmt, task, self.budget)
                    ops.append(Op(key, self.budget, call))
        return ops

    def judge(self, window: Window) -> None:
        shapes = {shape.name: shape for shape in self.shapes}
        member = {}
        for shape in self.shapes:
            grounded = reference_grounded(shape.framework.n, shape.arcs)
            member[shape.name] = shape.framework.index_of(shape.query) in grounded

        def verdict(key: str, text: str) -> bool | None:
            name, _, _, label = key.split("/")
            shape = shapes[name]
            task = parse_task(label, shape.query)
            try:
                answer = formats.parse_answer(text, task.problem)
            except formats.AnswerFormatError:
                return False
            if task.problem is Problem.SE:
                return _validator_verdict(shape.framework, name, task, answer)
            # Acyclic: every semantics has the grounded extension as its
            # only extension, so acceptance is grounded membership.
            return answer == formats.Decision(member[name])

        judge_samples(window, verdict)


# --------------------------------------------------------------------------
# competition-roundtrip


ROUNDTRIP_SCALES = {
    # instances, benchgen settings (meta_n, meta_p, size range, inner_p),
    # per-run time limit of both tracks, subtracks. One instance size keeps
    # the per-run cost alike across seeds, and sparse communities keep the
    # approximate solver's wrong answers rare, so that its accuracy, which
    # weighs heavily in par2_s, varies little from seed to seed.
    "full": (2, (4, 0.5, 3, 3, 0.2), 5.0, EXTERNAL_SEMANTICS),
    "tiny": (1, (2, 0.5, 2, 3, 0.25), 5.0, (Semantics.CO, Semantics.ST)),
}
RUNNER_WORKERS = 2
SOLVERS = {
    "builtin-exact": harness.builtin_solver_command("@builtin-exact"),
    "builtin-approx": harness.builtin_solver_command("@builtin-approx"),
}
_OUTCOMES = {
    harness.Outcome.CORRECT: CORRECT,
    harness.Outcome.WRONG: WRONG,
    harness.Outcome.TIMEOUT: TIMEOUT,
    harness.Outcome.CRASH: CRASH,
    harness.Outcome.NONPARSABLE: CRASH,
}


class CompetitionRoundtrip:
    name = "competition-roundtrip"
    clients = RUNNER_WORKERS

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.count, self.gen, self.limit, self.subtracks = ROUNDTRIP_SCALES[scale]
        self.work: Path | None = None
        self.instances: list[harness.InstanceFiles] = []
        self.generated: dict[str, benchgen.BenchmarkInstance] = {}

    def setup(self, work: Path) -> None:
        meta_n, meta_p, lo, hi, inner_p = self.gen
        config = benchgen.GeneratorConfig(
            seed=self.seed,
            meta_n=meta_n,
            meta_p=meta_p,
            inner_size_min=lo,
            inner_size_max=hi,
            inner_p=inner_p,
        )
        generated = benchgen.generate_corpus(config, self.count, work / "corpus")
        self.generated = {inst.name: inst for inst in generated}
        self.instances = harness.discover_instances(work / "corpus")
        self.work = work

    def frameworks(self) -> list[ArgumentationFramework]:
        return [inst.framework for inst in self.generated.values()]

    def configs(self) -> list[harness.TrackConfig]:
        return [
            harness.TrackConfig(track, self.subtracks, time_limit=self.limit)
            for track in harness.TRACKS
        ]

    def run(self, seconds: float, span) -> Window:
        """Round trips over both tracks until ``seconds`` have passed."""
        samples: list[Sample] = []
        busy = 0.0
        runlog = self.work / "runlog.tsv"
        notes: list[str] = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            for config in self.configs():
                began = time.perf_counter()
                with span("op", key=f"roundtrip/{config.track}"):
                    records = harness.run_competition(
                        SOLVERS, self.instances, config, fmt="apx", workers=RUNNER_WORKERS
                    )
                    harness.write_runlog(runlog, records, config)
                    replayed, _ = harness.read_runlog(runlog)
                    board = harness.score(replayed, config)
                busy += time.perf_counter() - began
                problem = check_round_trip(config, records, replayed, board)
                if problem:
                    notes.append(problem)
                for r in records:
                    key = f"{config.track}/{r.solver}/{r.instance}/{r.task}"
                    outcome = _OUTCOMES[r.outcome]
                    samples.append(Sample(key, r.wall_time, outcome, r.outcome, bool(problem)))
        budgets = {s.key: self.limit for s in samples}
        # the largest solver process; each starts afresh
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return Window(samples, busy, budgets, rss, notes=notes)

    def judge(self, window: Window) -> None:
        """Flag every run the runner recorded with the wrong outcome."""
        expected = self.expected_outcomes()
        for s in window.samples:
            if s.outcome != TIMEOUT and s.answer is not expected[s.key]:
                s.failed = True

    def expected_outcomes(self) -> dict[str, harness.Outcome]:
        """The outcome the runner must record for each run, worked out in
        process: the exact solver is always right; the approximate one is
        right where its answer matches the oracle and refuses CE and SE."""
        expected = {}
        for config in self.configs():
            for name, inst in self.generated.items():
                oracle = BruteForceOracle(inst.framework, ORACLE_CAP)
                for semantics in config.subtracks:
                    for problem in config.problems_for(semantics):
                        task = TaskSpec(problem, semantics, inst.query)
                        prefix = f"{config.track}/{{}}/{name}/{task.label}"
                        expected[prefix.format("builtin-exact")] = harness.Outcome.CORRECT
                        if problem in (Problem.CE, Problem.SE):
                            approx_outcome = harness.Outcome.CRASH
                        elif approx.approx_decide(inst.framework, task) == oracle.answer(task):
                            approx_outcome = harness.Outcome.CORRECT
                        else:
                            approx_outcome = harness.Outcome.WRONG
                        expected[prefix.format("builtin-approx")] = approx_outcome
        return expected


def check_round_trip(config, records, replayed, board) -> str:
    """Empty if the log replays exactly and the board scores every solver
    with its count of correct runs; else what went wrong."""
    if replayed != records:
        return f"{config.track}: run log did not replay to the same records"
    for semantics in config.subtracks:
        labels = config.task_labels(semantics)
        for solver in SOLVERS:
            want = sum(
                1
                for r in records
                if r.solver == solver and r.task in labels and r.outcome is harness.Outcome.CORRECT
            )
            got = board.per_subtrack.get((solver, semantics))
            if got != want:
                return f"{config.track} {semantics.value}: {solver} scored {got}, expected {want}"
    return ""


WORKLOADS = {w.name: w for w in (ExactCommunity, LargeSparse, CompetitionRoundtrip)}
