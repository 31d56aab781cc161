import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afkit.approx import accuracy_report, approx_decide, grounded_extension
from afkit.formats import Decision
from afkit.framework import ArgumentationFramework
from afkit.tasks import IllegalTaskError, Problem, Semantics, TaskSpec


def chain():
    return ArgumentationFramework(["a", "b", "c"], [(0, 1), (1, 2)])


def test_grounded_examples(worked_example):
    assert grounded_extension(worked_example) == 0
    af = chain()
    assert grounded_extension(af) == af.mask_of(["a", "c"])
    assert grounded_extension(ArgumentationFramework([], [])) == 0


def _defense_fixpoint(af):
    # Reference: iterate the defense operator from the empty set.
    current = 0
    while True:
        defended = af.defended_by(current)
        if defended == current:
            return current
        current = defended


@st.composite
def frameworks_with_self_attacks(draw, max_args=30):
    n = draw(st.integers(min_value=0, max_value=max_args))
    pairs = []
    if n:
        node = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
        pairs += [(a, a) for a in draw(st.lists(node, max_size=n // 3))]
    return ArgumentationFramework([f"a{i}" for i in range(n)], pairs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(frameworks_with_self_attacks())
def test_grounded_equals_defense_fixpoint(af):
    assert grounded_extension(af) == _defense_fixpoint(af)


def test_decision_rule_examples(worked_example):
    assert approx_decide(worked_example, TaskSpec(Problem.DS, Semantics.CO, "a1")) == Decision(False)
    af = chain()
    assert approx_decide(af, TaskSpec(Problem.DC, Semantics.CO, "a")) == Decision(True)
    loner = ArgumentationFramework(["x"], [(0, 0)])
    assert approx_decide(loner, TaskSpec(Problem.DC, Semantics.CO, "x")) == Decision(False)


def test_dc_id_folds_into_ds_id(worked_example):
    dc = approx_decide(worked_example, TaskSpec(Problem.DC, Semantics.ID, "a2"))
    ds = approx_decide(worked_example, TaskSpec(Problem.DS, Semantics.ID, "a2"))
    assert dc == ds


def test_rejects_non_decision_problems(worked_example):
    with pytest.raises(IllegalTaskError):
        approx_decide(worked_example, TaskSpec(Problem.SE, Semantics.CO))
    with pytest.raises(IllegalTaskError):
        approx_decide(worked_example, TaskSpec(Problem.CE, Semantics.CO))


def test_ds_co_is_exact(corpus, corpus_oracles):
    for (af, query), oracle in list(zip(corpus, corpus_oracles))[:300]:
        task = TaskSpec(Problem.DS, Semantics.CO, query)
        assert approx_decide(af, task) == oracle.answer(task)


def test_dc_yes_is_sound_for_complete_and_preferred(corpus, corpus_oracles):
    # A YES whose query sits in the grounded extension can never be wrong
    # for credulous complete/preferred acceptance.
    for (af, query), oracle in list(zip(corpus, corpus_oracles))[:300]:
        grounded = grounded_extension(af)
        if grounded >> af.index_of(query) & 1:
            for sem in (Semantics.CO, Semantics.PR):
                assert oracle.answer(TaskSpec(Problem.DC, sem, query)) == Decision(True)


def test_bounded_time_on_desk_scale_inputs(corpus):
    start = time.monotonic()
    for af, query in corpus[:500]:
        approx_decide(af, TaskSpec(Problem.DS, Semantics.STG, query))
    assert time.monotonic() - start < 5.0


def test_accuracy_report(corpus):
    sample = corpus[:120]
    report = accuracy_report(sample)
    # one fraction per approximate-track task, eleven in total
    assert len(report) == 11
    assert set(report) == {
        "DC-CO", "DS-CO", "DC-PR", "DS-PR", "DC-ST", "DS-ST",
        "DC-SST", "DS-SST", "DC-STG", "DS-STG", "DS-ID",
    }
    assert all(0.0 <= fraction <= 1.0 for fraction in report.values())
    # exactness of grounded reasoning for skeptical-complete
    assert report["DS-CO"] == 1.0
