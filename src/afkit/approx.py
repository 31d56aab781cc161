"""Polynomial-time approximate acceptance built on the grounded extension.

The grounded extension takes time linear in the size of the framework (the
counter/worklist algorithm of Modgil & Caminada 2009, see
:func:`grounded_extension`) and is contained in every complete extension,
which makes it a usable stand-in for the expensive semantics: skeptical
questions are answered by grounded membership, and credulous questions
additionally accept arguments the grounded extension leaves untouched. The
DS-CO answers are exact; everything else is a heuristic whose error rate is
measured, not hidden (see :func:`accuracy_report`).
"""

from __future__ import annotations

from typing import Iterable

from .formats import Decision
from .framework import ArgumentationFramework, ArgumentSet
from .tasks import IllegalTaskError, Problem, TaskSpec, validate_task


def grounded_extension(af: ArgumentationFramework) -> ArgumentSet:
    """Least fixpoint of the defense operator, by the linear counter algorithm.

    Each argument counts its attackers that are not yet OUT. Unattacked
    arguments start the worklist; an argument taken from it goes IN, its
    targets go OUT, and every target of a newly OUT argument loses one from
    its count. An argument whose count reaches zero joins the worklist. Each
    attack is looked at a bounded number of times, so the whole computation
    is O(n + m).
    """
    n = af.n
    targets: list[list[int]] = [[] for _ in range(n)]
    live = [0] * n  # attackers not yet OUT
    for a, b in af.attacks:
        targets[a].append(b)
        live[b] += 1
    out = bytearray(n)
    work = [a for a in range(n) if not live[a]]
    accepted = bytearray((n + 7) // 8)  # the result's bits, set bytewise in O(1)
    while work:
        a = work.pop()
        accepted[a >> 3] |= 1 << (a & 7)
        for b in targets[a]:
            if out[b]:
                continue
            out[b] = 1
            for c in targets[b]:
                live[c] -= 1
                # An OUT argument keeps its IN attacker, so only arguments
                # that are not OUT can reach zero.
                if not live[c]:
                    work.append(c)
    return int.from_bytes(accepted, "little")


def approx_decide(af: ArgumentationFramework, task: TaskSpec) -> Decision:
    """Bounded-time decision for a DC or DS task.

    With G the grounded extension: DS answers YES iff the query is in G;
    DC answers YES iff the query is in G, or is neither attacked by G nor
    self-attacking.
    """
    task = validate_task(task, af)
    if task.problem not in (Problem.DC, Problem.DS):
        raise IllegalTaskError(f"approximate mode answers only DC and DS, not {task.label}")
    grounded = grounded_extension(af)
    query = af.index_of(task.query)  # type: ignore[arg-type]
    bit = 1 << query
    if task.problem is Problem.DS:
        return Decision(bool(grounded & bit))
    if grounded & bit:
        return Decision(True)
    attacked = af.attacked_by(grounded)
    self_attacking = bool(af.attacker_masks[query] & bit)
    return Decision(not attacked & bit and not self_attacking)


def accuracy_report(
    instances: Iterable[tuple[ArgumentationFramework, str]], cap: int = 20
) -> dict[str, float]:
    """Fraction of approximate answers agreeing with the exhaustive reference.

    Takes (framework, query) pairs small enough for the brute-force oracle
    and returns one fraction per approximate-track task label. The fractions
    are measured outputs of the heuristic, not tuned constants.
    """
    from .oracle import BruteForceOracle
    from .tasks import approximate_track_tasks

    totals: dict[str, int] = {}
    matches: dict[str, int] = {}
    for af, query in instances:
        oracle = BruteForceOracle(af, cap)
        for problem, semantics in approximate_track_tasks():
            task = TaskSpec(problem, semantics, query)
            label = task.label
            totals[label] = totals.get(label, 0) + 1
            if approx_decide(af, task) == oracle.answer(task):
                matches[label] = matches.get(label, 0) + 1
    return {label: matches.get(label, 0) / totals[label] for label in totals}
