"""Reasoning tasks: problems, semantics, and the per-track task tables."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .framework import ArgumentationFramework


class Problem(Enum):
    CE = "CE"  # count the extensions
    SE = "SE"  # exhibit one extension
    DC = "DC"  # credulous acceptance of a query argument
    DS = "DS"  # skeptical acceptance of a query argument


class Semantics(Enum):
    CO = "CO"
    PR = "PR"
    ST = "ST"
    SST = "SST"
    STG = "STG"
    ID = "ID"
    # Grounded is internal plumbing (approximation and reference checks);
    # it is never accepted from a task string.
    GR = "GR"


EXTERNAL_SEMANTICS: tuple[Semantics, ...] = (
    Semantics.CO,
    Semantics.PR,
    Semantics.ST,
    Semantics.SST,
    Semantics.STG,
    Semantics.ID,
)


class IllegalTaskError(ValueError):
    """A problem/semantics combination that is not solvable as asked."""


class UnknownArgumentError(ValueError):
    """A query argument that does not occur in the framework."""


@dataclass(frozen=True)
class TaskSpec:
    problem: Problem
    semantics: Semantics
    query: str | None = None

    @property
    def label(self) -> str:
        return f"{self.problem.value}-{self.semantics.value}"


def parse_task(text: str, query: str | None = None) -> TaskSpec:
    """Parse a ``PROBLEM-SEMANTICS`` label such as ``DC-CO``.

    The internal grounded tag is rejected here on purpose: external task
    strings only ever name the six competition semantics.
    """
    head, sep, tail = text.strip().partition("-")
    if not sep:
        raise ValueError(f"malformed task {text!r}, expected PROBLEM-SEMANTICS")
    try:
        problem = Problem(head)
    except ValueError:
        raise ValueError(f"unknown problem {head!r}") from None
    matching = [s for s in EXTERNAL_SEMANTICS if s.value == tail]
    if not matching:
        raise ValueError(f"unknown semantics {tail!r}")
    return TaskSpec(problem, matching[0], query)


def validate_task(task: TaskSpec, af: "ArgumentationFramework | None" = None) -> TaskSpec:
    """Check task legality and normalize it; returns the task to execute.

    DC-ID is folded into DS-ID (they coincide because the ideal extension is
    unique), CE-ID is rejected as trivial, and decision problems must carry a
    query argument that exists in the framework when one is supplied.
    """
    if task.semantics is Semantics.GR:
        raise IllegalTaskError("grounded semantics is internal and has no task form")
    if task.semantics is Semantics.ID and task.problem is Problem.CE:
        raise IllegalTaskError("CE-ID is not a task: the ideal extension is always unique")
    if task.semantics is Semantics.ID and task.problem is Problem.DC:
        task = TaskSpec(Problem.DS, Semantics.ID, task.query)
    if task.problem in (Problem.DC, Problem.DS):
        if task.query is None:
            raise IllegalTaskError(f"{task.label} requires a query argument")
        if af is not None and task.query not in af:
            raise UnknownArgumentError(f"query argument {task.query!r} is not in the framework")
    return task


def exact_subtrack_problems(semantics: Semantics) -> tuple[Problem, ...]:
    """Problems making up one exact-track subtrack."""
    if semantics is Semantics.ID:
        return (Problem.SE, Problem.DS)
    return (Problem.CE, Problem.SE, Problem.DC, Problem.DS)


def approximate_subtrack_problems(semantics: Semantics) -> tuple[Problem, ...]:
    """Problems making up one approximate-track subtrack."""
    if semantics is Semantics.ID:
        return (Problem.DS,)
    return (Problem.DC, Problem.DS)


def exact_track_tasks() -> tuple[tuple[Problem, Semantics], ...]:
    """All 22 (problem, semantics) pairs of the exact track."""
    pairs: list[tuple[Problem, Semantics]] = []
    for sem in EXTERNAL_SEMANTICS:
        for prob in exact_subtrack_problems(sem):
            pairs.append((prob, sem))
    return tuple(pairs)


def approximate_track_tasks() -> tuple[tuple[Problem, Semantics], ...]:
    """All 11 (problem, semantics) pairs of the approximate track."""
    pairs: list[tuple[Problem, Semantics]] = []
    for sem in EXTERNAL_SEMANTICS:
        for prob in approximate_subtrack_problems(sem):
            pairs.append((prob, sem))
    return tuple(pairs)
