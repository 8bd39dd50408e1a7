"""The oracle against the engine on a 200-series relation, and the check
that counts a deliberately wrong answer."""

import copy

import numpy as np
import pytest

from bench_e2e import oracle, workloads
from bench_e2e.__main__ import check_answers


@pytest.fixture(scope="module")
def small():
    rng = np.random.default_rng(11)
    rel = workloads.random_walks(rng, 200, 128)
    queries = rel[:6] + rng.normal(0.0, 0.5, size=(6, 128))
    return rel, queries


@pytest.fixture(scope="module")
def session(small):
    from repro.core.language import QuerySession
    from repro.data.relation import SequenceRelation

    rel, queries = small
    s = QuerySession()
    s.bind_relation("r", SequenceRelation.from_matrix(rel))
    for i, q in enumerate(queries):
        s.bind_sequence(f"q{i}", q)
    return s


@pytest.mark.parametrize("using", [False, True])
def test_range_and_knn_agree_with_the_engine(small, session, using):
    rel, queries = small
    truth = oracle.WholeOracle(rel)
    clause = " USING mavg(20)" if using else ""
    for i, q in enumerate(queries):
        dists = truth.distances(q, using)
        eps = float(np.sort(dists)[7] + 1e-3)
        got = dict(session.execute(f"RANGE q{i} IN r EPS {eps!r}{clause}"))
        assert len(got) == 8
        assert not oracle.check_threshold(got, oracle.matrix_dists(dists, eps), eps)
        got = dict(session.execute(f"KNN q{i} IN r K 5{clause}"))
        limit = oracle.kth_smallest(dists, 5)
        assert not oracle.check_nearest(got, oracle.matrix_dists(dists, limit), 5)


def test_join_agrees_with_the_engine(small, session):
    rel, _ = small
    pairs = oracle.WholeOracle(rel).pair_distances(using=True)
    pairs[np.tril_indices(pairs.shape[0])] = np.inf
    eps = float(np.sort(pairs, axis=None)[20])
    got = {(i, j): d for i, j, d in session.execute(f"JOIN r EPS {eps!r} USING mavg(20)")}
    assert len(got) >= 20
    assert not oracle.check_threshold(got, oracle.matrix_dists(pairs, eps), eps)


def test_subsequence_queries_agree_with_the_engine():
    from repro.core.language import QuerySession
    from repro.data.relation import SequenceRelation

    rng = np.random.default_rng(12)
    rel = workloads.random_walks(rng, 12, 256)
    s = QuerySession()
    s.bind_relation("r", SequenceRelation.from_matrix(rel))
    for length in (32, 96):
        q = rel[3, 40:40 + length] + rng.normal(0.0, 0.2, size=length)
        s.bind_sequence("q", q)
        dists = oracle.window_distances(rel, q)
        eps = float(np.sort(dists, axis=None)[5] + 1e-3)
        got = {
            (m.series_id, m.offset): m.distance
            for m in s.execute(f"RANGE SUBSEQ q IN r EPS {eps!r} WINDOW 32 PROBE auto")
        }
        assert len(got) == 6
        assert not oracle.check_threshold(got, oracle.matrix_dists(dists, eps), eps)
        got = {
            (m.series_id, m.offset): m.distance
            for m in s.execute("KNN SUBSEQ q IN r K 4 WINDOW 32")
        }
        limit = oracle.kth_smallest(dists, 4)
        assert not oracle.check_nearest(got, oracle.matrix_dists(dists, limit), 4)


def test_ties_at_the_threshold_may_go_either_way():
    dists = {1: 0.5, 2: 1.0, 3: 1.0 + 5e-7, 4: 2.0}
    assert not oracle.check_threshold({1: 0.5, 2: 1.0}, dists, 1.0)
    assert not oracle.check_threshold({1: 0.5, 2: 1.0, 3: 1.0 + 5e-7}, dists, 1.0)
    assert oracle.check_threshold({1: 0.5}, {1: 0.5, 2: 0.9}, 1.0)       # dismissal
    assert oracle.check_threshold({1: 0.5, 4: 2.0}, dists, 1.0)          # false positive
    assert oracle.check_threshold({1: 0.5001, 2: 1.0}, dists, 1.0)       # wrong distance
    assert not oracle.check_nearest({1: 0.5, 3: 1.0 + 5e-7}, dists, 2)   # k-th tie
    assert oracle.check_nearest({1: 0.5}, dists, 2)                      # too few


def test_a_wrong_answer_injected_into_the_sample_is_counted():
    inputs = workloads.generate("point_range", seed=3, smoke=True)
    truth = oracle.WholeOracle(inputs["arrays"]["r"])
    answers = {}
    for i in inputs["check"]:
        op = inputs["ops"][i]
        dists = truth.distances(inputs["arrays"]["q"][op["q"]], op["using"])
        answers[str(i)] = [[int(j), float(dists[j])] for j in np.nonzero(dists <= op["eps"])[0]]
    assert check_answers(inputs, answers) == []

    wrong = copy.deepcopy(answers)
    first, second = sorted(wrong)[:2]
    wrong[first].append([0, 0.0])                   # a record that is not that close
    wrong[second] = [[j, d + 1e-3] for j, d in wrong[second]] or [[1, 0.0]]
    failures = check_answers(inputs, wrong)
    assert {i for i, _ in failures} == {int(first), int(second)}
    assert inputs["ops"][int(first)]["text"] in failures[0][1]  # printed with the statement
