"""Exact solver: backtracking over three-valued labellings with propagation.

The search decides, argument by argument, whether it is accepted (IN) or
not; propagation forces an argument IN once all of its attackers are OUT and
OUT once some attacker is IN, and prunes on contradiction. Propagation is
event-driven: a node carries its OUT set, each round looks only at the
arguments that have just gone IN, and the only candidates for being forced
IN are the targets of the arguments that have just gone OUT. A finished
branch is checked against the fixpoint condition for complete labellings,
so every complete labelling is emitted exactly once. Preferred, semi-stable,
stage and ideal reasoning filter the enumerated candidates by set or range
maximality afterwards.

``SE-CO`` and ``DS-CO`` never search: the grounded extension is the least
complete extension, so it is the exhibited one, and an argument is
skeptically accepted under the complete semantics iff it is grounded. Both
take time linear in the size of the framework.

Answers are deterministic: the branching order is fixed (maximum degree
first, ties by index), so repeated runs return identical output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .approx import grounded_extension
from .formats import Answer, CountAnswer, Decision, ExtensionAnswer
from .framework import ArgumentationFramework, ArgumentSet, bits
from .tasks import Problem, Semantics, TaskSpec, validate_task

_NO_DEADLINE = float("inf")


class SolverTimeoutError(RuntimeError):
    """A solve call exceeded its wall-clock budget."""


@dataclass(frozen=True)
class Labelling:
    """A completed three-valued labelling, one bitmask per label."""

    in_mask: ArgumentSet
    out_mask: ArgumentSet
    undec_mask: ArgumentSet


def _branch_order(af: ArgumentationFramework) -> list[int]:
    # Highest total degree first; ties break towards the input order.
    degree = [
        af.attacker_masks[i].bit_count() + af.attacked_masks[i].bit_count() for i in range(af.n)
    ]
    return sorted(range(af.n), key=lambda i: (-degree[i], i))


def complete_labellings(
    af: ArgumentationFramework,
    deadline: float = _NO_DEADLINE,
    require: ArgumentSet = 0,
) -> Iterator[Labelling]:
    """Yield every complete labelling of ``af`` exactly once.

    With ``require`` set, only labellings whose IN set contains it are
    explored, which turns the same search into a superset existence check.
    The search runs on an explicit stack, so framework size is not bounded
    by the interpreter's recursion limit.
    """
    full = af.all_mask
    attackers = af.attacker_masks
    attacked = af.attacked_masks
    order = _branch_order(af)
    unattacked = 0
    for a in range(af.n):
        if not attackers[a]:
            unattacked |= 1 << a

    # A node is (IN, banned, OUT, attackers of IN, newly IN, position in
    # the branch order). Banned arguments can never be IN: they are OUT,
    # attack an IN argument, or were branched to not-IN. Propagation starts
    # from the newly IN arguments only; the rest of the node is already a
    # fixpoint. Free arguments only shrink along a branch, so the next pick
    # is never earlier in the branch order than the last one.
    root = require | unattacked
    stack = [(root, 0, 0, 0, root, 0)]
    while stack:
        if time.monotonic() > deadline:
            raise SolverTimeoutError("labelling search exceeded its budget")
        in_mask, banned, out, need, new, pos = stack.pop()
        while new:
            new_out = 0
            for a in bits(new):
                new_out |= attacked[a]
                need |= attackers[a]
            new_out &= ~out
            out |= new_out
            banned |= need | out
            if banned & in_mask:
                break
            # Only a target of a newly OUT argument can have just lost its
            # last attacker that is not OUT.
            not_out = ~out
            new = 0
            for a in bits(af.attacked_by(new_out) & ~in_mask):
                if not attackers[a] & not_out:
                    new |= 1 << a
            if new & banned:
                break  # forced IN but committed to not-IN
            in_mask |= new
        if new:
            continue  # contradiction
        free = full & ~(in_mask | banned)
        if not free:
            # Leaf. Propagation guarantees that nothing outside IN is
            # defended; IN arguments committed by branching still need their
            # attackers to have ended up OUT.
            if not need & ~out:
                yield Labelling(in_mask, out, full & ~(in_mask | out))
            continue
        while not free >> order[pos] & 1:
            pos += 1
        bit = 1 << order[pos]
        # Last pushed is explored first: the IN child, then the not-IN one.
        stack.append((in_mask, banned | bit, out, need, 0, pos + 1))
        stack.append((in_mask | bit, banned, out, need, bit, pos + 1))


def conflict_free_sets(
    af: ArgumentationFramework,
    deadline: float = _NO_DEADLINE,
    maximal_only: bool = False,
) -> Iterator[ArgumentSet]:
    """Yield conflict-free sets; with ``maximal_only``, just the maximal ones.

    Used for the stage semantics, whose extensions are necessarily maximal
    conflict-free sets (growing a conflict-free set strictly grows its
    range).
    """
    full = af.all_mask
    attackers = af.attacker_masks
    attacked = af.attacked_masks
    order = _branch_order(af)
    self_loops = 0
    for a in range(af.n):
        if attackers[a] >> a & 1:
            self_loops |= 1 << a

    stack = [(0, self_loops, 0)]  # (IN, banned, position in the branch order)
    while stack:
        if time.monotonic() > deadline:
            raise SolverTimeoutError("conflict-free enumeration exceeded its budget")
        in_mask, banned, pos = stack.pop()
        free = full & ~(in_mask | banned)
        if not free:
            if maximal_only and any(
                not (attackers[b] | attacked[b]) & in_mask
                for b in bits(full & ~in_mask & ~self_loops)
            ):
                continue  # some b could still join, so in_mask is not maximal
            yield in_mask
            continue
        while not free >> order[pos] & 1:
            pos += 1
        pick = order[pos]
        bit = 1 << pick
        stack.append((in_mask, banned | bit, pos + 1))
        stack.append((in_mask | bit, banned | attackers[pick] | attacked[pick], pos + 1))


def maximal_filter(
    candidates: Iterable[ArgumentSet],
    key: Callable[[ArgumentSet], ArgumentSet] | None = None,
) -> list[ArgumentSet]:
    """Keep the candidates whose key mask no other key mask strictly contains.

    The key is the set itself for preferred reasoning and the range for
    semi-stable and stage reasoning.
    """
    masks = list(candidates)
    keys = masks if key is None else [key(m) for m in masks]
    kept = []
    for mask, k in zip(masks, keys):
        if not any(k != other and not k & ~other for other in keys):
            kept.append(mask)
    return kept


def ideal_extension(af: ArgumentationFramework, deadline: float = _NO_DEADLINE) -> ArgumentSet:
    """The unique largest admissible set inside every preferred extension.

    Starts from the intersection of the preferred extensions and repeatedly
    drops arguments with an attacker the remaining candidates do not attack;
    the fixpoint is admissible and contains every admissible subset of the
    intersection.
    """
    preferred = extensions(af, Semantics.PR, deadline)
    intersection = af.all_mask
    for ext in preferred:
        intersection &= ext
    candidate = intersection
    while True:
        plus = af.attacked_by(candidate)
        kept = 0
        for a in bits(candidate):
            if not af.attacker_masks[a] & ~plus:
                kept |= 1 << a
        if kept == candidate:
            return candidate
        candidate = kept


def extensions(
    af: ArgumentationFramework, semantics: Semantics, deadline: float = _NO_DEADLINE
) -> list[ArgumentSet]:
    """All extensions under ``semantics``, in deterministic search order."""
    if semantics is Semantics.CO:
        return [lab.in_mask for lab in complete_labellings(af, deadline)]
    if semantics is Semantics.PR:
        return maximal_filter(extensions(af, Semantics.CO, deadline))
    if semantics is Semantics.ST:
        return [lab.in_mask for lab in complete_labellings(af, deadline) if not lab.undec_mask]
    if semantics is Semantics.SST:
        return maximal_filter(extensions(af, Semantics.CO, deadline), af.range_of)
    if semantics is Semantics.STG:
        return maximal_filter(conflict_free_sets(af, deadline, maximal_only=True), af.range_of)
    if semantics is Semantics.ID:
        return [ideal_extension(af, deadline)]
    if semantics is Semantics.GR:
        return [grounded_extension(af)]
    raise ValueError(f"unknown semantics {semantics!r}")


def _stable_labellings(af: ArgumentationFramework, deadline: float) -> Iterator[Labelling]:
    return (lab for lab in complete_labellings(af, deadline) if not lab.undec_mask)


def solve(af: ArgumentationFramework, task: TaskSpec, budget: float | None = None) -> Answer:
    """Answer one task exactly, or raise :class:`SolverTimeoutError`.

    The budget is wall-clock; it is checked at every search node, so a
    timeout is reported promptly instead of a partial answer.
    """
    deadline = time.monotonic() + budget if budget is not None else _NO_DEADLINE
    task = validate_task(task, af)
    semantics = task.semantics
    problem = task.problem

    if problem is Problem.CE:
        if semantics is Semantics.CO:
            return CountAnswer(sum(1 for _ in complete_labellings(af, deadline)))
        if semantics is Semantics.ST:
            return CountAnswer(sum(1 for _ in _stable_labellings(af, deadline)))
        return CountAnswer(len(extensions(af, semantics, deadline)))

    if problem is Problem.SE:
        if semantics is Semantics.CO:
            found = grounded_extension(af)
        elif semantics is Semantics.ST:
            lab = next(_stable_labellings(af, deadline), None)
            if lab is None:
                return ExtensionAnswer(None)
            found = lab.in_mask
        else:
            exts = extensions(af, semantics, deadline)
            if not exts:
                return ExtensionAnswer(None)
            found = exts[0]
        return ExtensionAnswer(af.names_of(found))

    bit = 1 << af.index_of(task.query)  # type: ignore[arg-type]

    if problem is Problem.DC:
        # Credulous acceptance under complete and preferred coincides with
        # membership in some complete labelling, so the stream short-circuits.
        if semantics in (Semantics.CO, Semantics.PR):
            return Decision(any(lab.in_mask & bit for lab in complete_labellings(af, deadline)))
        if semantics is Semantics.ST:
            return Decision(any(lab.in_mask & bit for lab in _stable_labellings(af, deadline)))
        return Decision(any(ext & bit for ext in extensions(af, semantics, deadline)))

    # DS; over an empty extension set (stable only) acceptance is vacuous.
    if semantics is Semantics.CO:
        return Decision(bool(grounded_extension(af) & bit))
    if semantics is Semantics.ST:
        return Decision(all(lab.in_mask & bit for lab in _stable_labellings(af, deadline)))
    return Decision(all(ext & bit for ext in extensions(af, semantics, deadline)))
