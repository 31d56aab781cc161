"""Exhaustive reference semantics, the ground truth for everything else.

Every extension-based semantics is evaluated by scanning all ``2**n`` subsets
against its defining predicate. That is only feasible for small frameworks,
so calls are guarded by a cap; this module is a test oracle, not a solver.
"""

from __future__ import annotations

from functools import reduce

from .approx import grounded_extension
from .formats import Answer, CountAnswer, Decision, ExtensionAnswer
from .framework import ArgumentationFramework, ArgumentSet
from .tasks import Problem, Semantics, TaskSpec, validate_task

DEFAULT_CAP = 20


class TooLargeError(ValueError):
    """Framework too large for subset enumeration."""


def _maximal(masks: list[int], keys: list[int]) -> list[int]:
    kept = []
    for mask, key in zip(masks, keys):
        if not any(key != other and not key & ~other for other in keys):
            kept.append(mask)
    return kept


class BruteForceOracle:
    """Subset-scan semantics for one framework, with cached tables.

    Extension lists are in canonical order: ascending bitmask value, bit ``i``
    being the argument with index ``i``.
    """

    def __init__(self, af: ArgumentationFramework, cap: int = DEFAULT_CAP):
        if af.n > cap:
            raise TooLargeError(f"{af.n} arguments exceeds the oracle cap of {cap}")
        self.af = af
        self._plus: list[int] | None = None
        self._sets: dict[str, list[int]] = {}

    def _plus_table(self) -> list[int]:
        # plus[s] = set attacked by s, filled by peeling the lowest bit.
        if self._plus is None:
            attacked = self.af.attacked_masks
            table = [0] * (1 << self.af.n)
            for s in range(1, len(table)):
                low = s & -s
                table[s] = table[s ^ low] | attacked[low.bit_length() - 1]
            self._plus = table
        return self._plus

    def _base_sets(self) -> None:
        # One pass computing conflict-free, admissible and complete subsets.
        if "CF" in self._sets:
            return
        af = self.af
        plus = self._plus_table()
        attackers = af.attacker_masks
        n = af.n
        cf: list[int] = []
        adm: list[int] = []
        co: list[int] = []
        for s in range(1 << n):
            p = plus[s]
            if p & s:
                continue
            cf.append(s)
            defended = 0
            for a in range(n):
                if not attackers[a] & ~p:
                    defended |= 1 << a
            if not s & ~defended:
                adm.append(s)
                if defended == s:
                    co.append(s)
        self._sets["CF"] = cf
        self._sets["ADM"] = adm
        self._sets["CO"] = co

    def conflict_free_sets(self) -> list[int]:
        self._base_sets()
        return list(self._sets["CF"])

    def extensions(self, semantics: Semantics) -> list[int]:
        """All extensions of ``semantics``, ascending by bitmask."""
        key = semantics.value
        if key not in self._sets:
            self._sets[key] = self._compute(semantics)
        return list(self._sets[key])

    def _compute(self, semantics: Semantics) -> list[int]:
        af = self.af
        self._base_sets()
        cf, adm, co = self._sets["CF"], self._sets["ADM"], self._sets["CO"]
        plus = self._plus_table()
        if semantics is Semantics.CO:
            return list(co)
        if semantics is Semantics.PR:
            return sorted(_maximal(adm, adm))
        if semantics is Semantics.ST:
            full = af.all_mask
            return [s for s in cf if (s | plus[s]) == full]
        if semantics is Semantics.SST:
            return sorted(_maximal(co, [s | plus[s] for s in co]))
        if semantics is Semantics.STG:
            return sorted(_maximal(cf, [s | plus[s] for s in cf]))
        if semantics is Semantics.ID:
            preferred = self.extensions(Semantics.PR)
            intersection = reduce(lambda x, y: x & y, preferred)
            candidates = [s for s in adm if not s & ~intersection]
            ideal = sorted(_maximal(candidates, candidates))
            if len(ideal) != 1:
                raise RuntimeError("the ideal extension must be unique")
            return ideal
        if semantics is Semantics.GR:
            return [grounded_extension(af)]
        raise ValueError(f"unknown semantics {semantics!r}")

    def answer(self, task: TaskSpec) -> Answer:
        """Reference answer for one legal task."""
        task = validate_task(task, self.af)
        exts = self.extensions(task.semantics)
        if task.problem is Problem.CE:
            return CountAnswer(len(exts))
        if task.problem is Problem.SE:
            if not exts:
                return ExtensionAnswer(None)
            return ExtensionAnswer(self.af.names_of(exts[0]))
        query = 1 << self.af.index_of(task.query)  # type: ignore[arg-type]
        if task.problem is Problem.DC:
            return Decision(any(s & query for s in exts))
        # Skeptical acceptance over an empty extension set (stable semantics
        # only) is vacuously true.
        return Decision(all(s & query for s in exts))


def oracle_extensions(
    af: ArgumentationFramework, semantics: Semantics, cap: int = DEFAULT_CAP
) -> list[ArgumentSet]:
    return BruteForceOracle(af, cap).extensions(semantics)


def oracle_answer(af: ArgumentationFramework, task: TaskSpec, cap: int = DEFAULT_CAP) -> Answer:
    return BruteForceOracle(af, cap).answer(task)
