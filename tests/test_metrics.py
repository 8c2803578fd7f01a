import itertools

import numpy as np
import pytest

from mvclust import Partition, accuracy, nmi, purity
from mvclust.errors import LengthMismatchError
from mvclust.metrics import contingency_table, hungarian


def brute_force_assignment(cost):
    k = cost.shape[0]
    best_perm, best_cost = None, np.inf
    for perm in itertools.permutations(range(k)):
        c = sum(cost[i, perm[i]] for i in range(k))
        if c < best_cost:
            best_perm, best_cost = perm, c
    return best_perm, best_cost


def test_hungarian_identity_favoring():
    cost = np.ones((4, 4)) - np.eye(4)
    assert np.array_equal(hungarian(cost), np.arange(4))


def test_hungarian_matches_enumeration_small():
    rng = np.random.default_rng(0)
    cost = rng.integers(0, 10, size=(3, 3)).astype(float)
    perm = hungarian(cost)
    _, best = brute_force_assignment(cost)
    assert cost[np.arange(3), perm].sum() == best


def test_hungarian_all_equal_costs():
    cost = np.full((5, 5), 3.0)
    perm = hungarian(cost)
    assert sorted(perm) == list(range(5))
    assert cost[np.arange(5), perm].sum() == 15.0


def test_hungarian_equals_brute_force_many():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        k = rng.integers(2, 7)
        cost = rng.standard_normal((k, k))
        perm = hungarian(cost)
        _, best = brute_force_assignment(cost)
        assert cost[np.arange(k), perm].sum() == pytest.approx(best, abs=1e-12)


def test_hungarian_rejects_bad_input():
    with pytest.raises(ValueError):
        hungarian(np.ones((2, 3)))
    with pytest.raises(ValueError):
        hungarian(np.array([[np.nan, 1.0], [1.0, 0.0]]))


def test_accuracy_perfect_and_permuted():
    truth = np.array([0, 0, 1, 1, 2, 2])
    assert accuracy(truth, truth) == 1.0
    renamed = np.array([2, 2, 0, 0, 1, 1])
    assert accuracy(renamed, truth) == 1.0


def test_accuracy_two_misassigned():
    truth = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    pred = np.array([0, 0, 0, 1, 0, 1, 1, 1])
    # both cluster-to-class mappings, enumerated: identity maps 6/8 right,
    # the swap maps 2/8
    assert accuracy(pred, truth) == 0.75


def test_accuracy_unequal_class_counts():
    truth = np.array([0, 0, 1, 1, 2, 2])
    pred = np.array([0, 0, 0, 0, 1, 1])
    assert accuracy(pred, truth) == pytest.approx(4 / 6)


def test_accuracy_length_mismatch():
    with pytest.raises(LengthMismatchError):
        accuracy([0, 1], [0, 1, 1])
    with pytest.raises(LengthMismatchError, match="empty label sequences"):
        accuracy([], [])


def test_nmi_identical_nontrivial():
    truth = np.array([0, 0, 1, 1, 2, 2, 2])
    assert nmi(truth, truth) == pytest.approx(1.0, abs=1e-12)


def test_nmi_independent_labels_near_zero():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 4, size=10_000)
    b = rng.integers(0, 4, size=10_000)
    assert nmi(a, b) <= 0.05


def test_nmi_single_cluster_convention():
    truth = np.array([0, 1, 0, 1])
    pred = np.zeros(4, dtype=int)
    assert nmi(pred, truth) == 0.0
    assert nmi(pred, pred) == 0.0


def test_purity_basics():
    truth = np.array([0, 0, 1, 1])
    assert purity(truth, truth) == 1.0
    assert purity(np.arange(4), truth) == 1.0  # singleton clusters
    pred = np.array([0, 0, 0, 1, 1, 1, 1, 0])
    truth2 = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    # contingency [[3,1],[1,3]]
    C = contingency_table(pred, truth2)
    assert np.array_equal(np.sort(C.ravel()), [1, 1, 3, 3])
    assert purity(pred, truth2) == 0.75


def test_metrics_accept_partitions():
    truth = Partition(labels=np.array([0, 0, 1, 1]), k=2)
    pred = Partition(labels=np.array([1, 1, 0, 0]), k=2)
    assert accuracy(pred, truth) == 1.0
    assert nmi(pred, truth) == pytest.approx(1.0)
    assert purity(pred, truth) == 1.0


def test_metrics_invariant_under_relabeling():
    rng = np.random.default_rng(4)
    truth = rng.integers(0, 4, size=120)
    pred = rng.integers(0, 4, size=120)
    relabel = np.array([2, 3, 0, 1])
    for metric in (accuracy, nmi, purity):
        assert metric(pred, truth) == pytest.approx(metric(relabel[pred], truth), abs=1e-12)
        assert metric(pred, truth) == pytest.approx(metric(pred, relabel[truth]), abs=1e-12)


def test_purity_bounds_accuracy_on_square_tables():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = rng.integers(2, 6)
        n = 40
        truth = rng.integers(0, k, size=n)
        pred = rng.integers(0, k, size=n)
        truth[:k] = np.arange(k)  # keep both sides using all k classes
        pred[:k] = np.arange(k)
        assert purity(pred, truth) >= accuracy(pred, truth) - 1e-12


def test_metric_ranges():
    rng = np.random.default_rng(6)
    for _ in range(25):
        truth = rng.integers(0, 3, size=30)
        pred = rng.integers(0, 5, size=30)
        for val in (accuracy(pred, truth), nmi(pred, truth), purity(pred, truth)):
            assert 0.0 <= val <= 1.0
