import random
import time

import pytest

from afkit.approx import grounded_extension
from afkit.engine import (
    SolverTimeoutError,
    complete_labellings,
    conflict_free_sets,
    extensions,
    ideal_extension,
    maximal_filter,
    solve,
)
from afkit.formats import CountAnswer, Decision, ExtensionAnswer, write_answer
from afkit.framework import ArgumentationFramework
from afkit.oracle import BruteForceOracle
from afkit.tasks import Problem, Semantics, TaskSpec, exact_track_tasks

from .conftest import engine_matches_oracle, random_framework


def two_cycle():
    return ArgumentationFramework(["x", "y"], [(0, 1), (1, 0)])


def chain():
    return ArgumentationFramework(["a", "b", "c"], [(0, 1), (1, 2)])


def test_complete_labellings_worked_example(worked_example):
    labs = list(complete_labellings(worked_example))
    assert len(labs) == 3
    in_sets = {lab.in_mask for lab in labs}
    assert in_sets == {0, worked_example.mask_of(["a2"]), worked_example.mask_of(["a1", "a3"])}


def test_complete_labellings_empty_framework():
    labs = list(complete_labellings(ArgumentationFramework([], [])))
    assert len(labs) == 1
    assert labs[0].in_mask == labs[0].out_mask == labs[0].undec_mask == 0


def test_complete_labellings_two_cycle():
    af = two_cycle()
    assert {lab.in_mask for lab in complete_labellings(af)} == {0, 0b01, 0b10}


def test_labelling_legality(corpus):
    # IN iff all attackers OUT; OUT iff some attacker IN; the three masks
    # partition the arguments.
    for af, _ in corpus[:150]:
        for lab in complete_labellings(af):
            assert lab.in_mask | lab.out_mask | lab.undec_mask == af.all_mask
            assert lab.in_mask & lab.out_mask == 0
            assert lab.in_mask & lab.undec_mask == 0
            for a in range(af.n):
                attackers = af.attacker_masks[a]
                if lab.in_mask >> a & 1:
                    assert attackers & ~lab.out_mask == 0
                elif lab.out_mask >> a & 1:
                    assert attackers & lab.in_mask
                else:
                    assert not attackers & lab.in_mask
                    assert attackers & ~lab.out_mask


def test_complete_labellings_emitted_once(corpus):
    for af, _ in corpus[:150]:
        in_sets = [lab.in_mask for lab in complete_labellings(af)]
        assert len(set(in_sets)) == len(in_sets)


def test_complete_in_sets_match_oracle(corpus, corpus_oracles):
    for (af, _), oracle in list(zip(corpus, corpus_oracles))[:300]:
        got = sorted(lab.in_mask for lab in complete_labellings(af))
        assert got == oracle.extensions(Semantics.CO)


def test_require_seed_restricts_search(worked_example):
    seed = worked_example.mask_of(["a2"])
    labs = list(complete_labellings(worked_example, require=seed))
    assert [lab.in_mask for lab in labs] == [seed]


def test_require_equals_filtered_enumeration(corpus):
    # The Validator's superset search: restricting the search to labellings
    # containing a set yields exactly those of the full enumeration, in order.
    rng = random.Random(404)
    for af, _ in corpus[:300]:
        full = list(complete_labellings(af))
        seeds = [lab.in_mask for lab in full] + [1 << a for a in range(af.n)]
        seeds += [rng.getrandbits(af.n) & rng.getrandbits(af.n) for _ in range(3)]
        for seed in seeds:
            expected = [lab for lab in full if not seed & ~lab.in_mask]
            assert list(complete_labellings(af, require=seed)) == expected


def test_conflict_free_enumeration_matches_oracle(corpus, corpus_oracles):
    for (af, _), oracle in list(zip(corpus, corpus_oracles))[:100]:
        got = sorted(conflict_free_sets(af))
        assert got == oracle.conflict_free_sets()


def test_maximal_conflict_free_only():
    af = chain()
    got = set(conflict_free_sets(af, maximal_only=True))
    assert got == {af.mask_of(["a", "c"]), af.mask_of(["b"])}


def test_maximal_filter_examples(worked_example):
    af = worked_example
    co = extensions(af, Semantics.CO)
    assert sorted(maximal_filter(co)) == sorted(extensions(af, Semantics.PR))
    assert maximal_filter([0b101]) == [0b101]
    sa = ArgumentationFramework(["x"], [(0, 0)])
    assert maximal_filter(conflict_free_sets(sa), sa.range_of) == [0]


def test_ideal_extension_examples(worked_example):
    assert ideal_extension(worked_example) == 0
    af = chain()
    assert ideal_extension(af) == af.mask_of(["a", "c"])
    assert ideal_extension(ArgumentationFramework([], [])) == 0


def test_solve_worked_example(worked_example):
    af = worked_example
    assert solve(af, TaskSpec(Problem.CE, Semantics.CO)) == CountAnswer(3)
    se_st = solve(af, TaskSpec(Problem.SE, Semantics.ST))
    assert af.mask_of(se_st.names) in (af.mask_of(["a2"]), af.mask_of(["a1", "a3"]))


def test_solve_missing_stable_prints_no():
    af = ArgumentationFramework(["x"], [(0, 0)])
    answer = solve(af, TaskSpec(Problem.SE, Semantics.ST))
    assert answer == ExtensionAnswer(None)
    assert write_answer(answer) == "NO\n"


def test_solve_is_deterministic(corpus):
    for af, query in corpus[:40]:
        task = TaskSpec(Problem.SE, Semantics.PR, query)
        assert solve(af, task) == solve(af, task)


def test_dc_id_equals_ds_id(corpus):
    for af, query in corpus[:150]:
        dc = solve(af, TaskSpec(Problem.DC, Semantics.ID, query))
        ds = solve(af, TaskSpec(Problem.DS, Semantics.ID, query))
        assert dc == ds


def test_count_inequalities(corpus):
    # CE-ST <= CE-SST <= CE-PR <= CE-CO and CE-ST <= CE-STG; a nonempty
    # stable set forces equality with the semi-stable and stage counts.
    for af, _ in corpus[:200]:
        count = {
            sem: solve(af, TaskSpec(Problem.CE, sem)).count
            for sem in (Semantics.CO, Semantics.PR, Semantics.ST, Semantics.SST, Semantics.STG)
        }
        assert count[Semantics.ST] <= count[Semantics.SST] <= count[Semantics.PR] <= count[Semantics.CO]
        assert count[Semantics.ST] <= count[Semantics.STG]
        if count[Semantics.ST]:
            assert count[Semantics.SST] == count[Semantics.ST] == count[Semantics.STG]


def test_se_answers_satisfy_definition(corpus):
    # Independent of enumeration: check the returned set against the
    # defining predicate of its semantics.
    for af, _ in corpus[:100]:
        co = solve(af, TaskSpec(Problem.SE, Semantics.CO))
        assert af.is_complete_set(af.mask_of(co.names))
        st = solve(af, TaskSpec(Problem.SE, Semantics.ST))
        if st.names is not None:
            assert af.is_stable_set(af.mask_of(st.names))
        pr = solve(af, TaskSpec(Problem.SE, Semantics.PR))
        mask = af.mask_of(pr.names)
        assert af.is_complete_set(mask)
        assert all(lab.in_mask == mask for lab in complete_labellings(af, require=mask))


def test_differential_against_oracle():
    rng = random.Random(31337)
    for _ in range(150):
        af = random_framework(rng)
        query = af.names[rng.randrange(af.n)]
        oracle = BruteForceOracle(af)
        for problem, semantics in exact_track_tasks():
            task = TaskSpec(problem, semantics, query)
            assert engine_matches_oracle(af, task, oracle, solve(af, task)), task.label


def _big_framework(n=60, seed=5):
    rng = random.Random(seed)
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.08]
    return ArgumentationFramework([f"a{i}" for i in range(n)], arcs)


def _large_chain(n=5000):
    return ArgumentationFramework([f"a{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def _large_layered(n=5000, layers=10, seed=9):
    # Acyclic: every attack goes from one layer to the next.
    rng = random.Random(seed)
    width = n // layers
    arcs = [
        (layer * width + rng.randrange(width), (layer + 1) * width + rng.randrange(width))
        for layer in range(layers - 1)
        for _ in range(2 * width)
    ]
    return ArgumentationFramework([f"a{i}" for i in range(n)], arcs)


@pytest.mark.parametrize("build", [_large_chain, _large_layered])
def test_grounded_tasks_past_the_oracle_cap(build):
    # An acyclic framework has one complete extension, the grounded one, so
    # SE-CO returns it and both acceptance problems are grounded membership.
    af = build()
    grounded = grounded_extension(af)
    assert af.is_complete_set(grounded)
    if build is _large_chain:
        assert grounded == af.mask_of(af.names[::2])

    def timed(task):
        start = time.monotonic()
        answer = solve(af, task)
        assert time.monotonic() - start < 1.0, task.label
        return answer

    se = timed(TaskSpec(Problem.SE, Semantics.CO))
    assert af.mask_of(se.names) == grounded
    for query in (af.names[0], af.names[1], af.names[af.n // 2 + 1], af.names[-1]):
        member = Decision(bool(grounded >> af.index_of(query) & 1))
        assert timed(TaskSpec(Problem.DC, Semantics.CO, query)) == member
        assert timed(TaskSpec(Problem.DS, Semantics.CO, query)) == member


def test_timeout_raised_not_partial():
    with pytest.raises(SolverTimeoutError):
        solve(_big_framework(), TaskSpec(Problem.CE, Semantics.STG), budget=0.02)


def test_timeout_granularity():
    # The deadline is checked at every search node, so overshoot stays small.
    budget = 0.05
    start = time.monotonic()
    with pytest.raises(SolverTimeoutError):
        solve(_big_framework(), TaskSpec(Problem.CE, Semantics.STG), budget=budget)
    assert time.monotonic() - start < budget + 0.05


def test_illegal_and_unknown(worked_example):
    from afkit.tasks import IllegalTaskError, UnknownArgumentError

    with pytest.raises(IllegalTaskError):
        solve(worked_example, TaskSpec(Problem.CE, Semantics.ID))
    with pytest.raises(IllegalTaskError):
        solve(worked_example, TaskSpec(Problem.DS, Semantics.CO))
    with pytest.raises(UnknownArgumentError):
        solve(worked_example, TaskSpec(Problem.DS, Semantics.CO, "zz"))
    with pytest.raises(IllegalTaskError):
        solve(worked_example, TaskSpec(Problem.SE, Semantics.GR))
