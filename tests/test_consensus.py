import numpy as np
import pytest

from mvclust.consensus import (
    BLOCK_ROWS,
    CUT_SHARE,
    ROW_SUM_LIMIT,
    ConsensusGraph,
    compute_Q,
    gram_similarity,
    project_to_simplex,
    update_consensus_graph,
    update_view_weights,
    weight_qp,
)
from mvclust.errors import DimensionMismatchError

from conftest import brute_force_row_projection, graph_from_tops, project_graph, random_state, traced_peak


def test_gram_of_indicator_is_block_matrix():
    H = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    G = gram_similarity(H)
    assert np.array_equal(G, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])


def test_gram_of_zero_is_zero():
    assert not gram_similarity(np.zeros((3, 5))).any()


def test_gram_symmetric_psd():
    rng = np.random.default_rng(0)
    for H in (
        rng.standard_normal((3, 5)),
        rng.standard_normal((9, 500)),
        np.asfortranarray(rng.standard_normal((9, 500))),
        # a strided view: without a contiguous copy its product is not symmetric
        rng.standard_normal((9, 1000))[:, ::2],
    ):
        G = gram_similarity(H)
        assert np.array_equal(G, G.T)
        assert np.linalg.eigvalsh(G).min() >= -1e-10


def test_compute_q_single_view():
    state = random_state(dims=(6,), seed=1, alpha=[1.0])
    Q = compute_Q(state)
    assert np.allclose(Q, gram_similarity(state.stacks[0].top), atol=1e-14)


def test_compute_q_identical_views_average():
    state = random_state(dims=(6, 6), seed=2, alpha=[0.5, 0.5])
    state.stacks[1] = state.stacks[0]
    Q = compute_Q(state)
    assert np.allclose(Q, gram_similarity(state.stacks[0].top), atol=1e-12)


def test_compute_q_symmetric():
    state = random_state(seed=3)
    Q = compute_Q(state)
    assert np.abs(Q - Q.T).max() <= 1e-12


def test_projection_leaves_feasible_rows_alone():
    # dyadic rows sum to 1.0 exactly, so the shift is exactly zero
    Q = np.array(
        [
            [0.0, 0.25, 0.25, 0.5, 0.0],
            [0.5, 0.0, 0.5, 0.0, 0.0],
            [0.125, 0.375, 0.0, 0.25, 0.25],
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0625, 0.0625, 0.125, 0.75, 0.0],
        ]
    )
    S = project_graph(Q.copy())
    assert np.array_equal(S, Q)
    # float-normalized feasible rows survive within rounding
    n = 5
    rng = np.random.default_rng(4)
    Q = np.zeros((n, n))
    for i in range(n):
        row = rng.random(n)
        row[i] = 0.0
        Q[i] = row / row.sum()
    assert np.abs(project_graph(Q.copy()) - Q).max() <= 1e-15


def test_projection_of_zero_matrix_is_uniform():
    n = 6
    S = project_graph(np.zeros((n, n)))
    expected = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(expected, 0.0)
    assert np.allclose(S, expected, atol=1e-15)


def test_projection_matches_active_set_oracle():
    rng = np.random.default_rng(5)
    n = 5
    for _ in range(1000):
        Q = rng.standard_normal((n, n)) * rng.choice([0.1, 1.0, 10.0])
        S = project_graph(Q.copy())
        i = rng.integers(n)
        oracle = brute_force_row_projection(Q[i], i)
        assert np.linalg.norm(S[i] - oracle) <= 1e-8


def test_projection_runs_in_its_arguments_buffer():
    Q = np.random.default_rng(9).standard_normal((6, 6))
    expected = project_graph(Q.copy())
    S = project_graph(Q)
    assert S is Q
    assert np.array_equal(S, expected)


def test_projection_feasibility_and_idempotence():
    rng = np.random.default_rng(6)
    Q = rng.standard_normal((40, 40)) * 3
    S = project_graph(Q)
    assert S.min() >= 0
    assert np.all(np.diag(S) == 0)
    assert np.abs(S.sum(axis=1) - 1).max() <= 1e-12
    S2 = project_graph(S.copy())
    assert np.abs(S2 - S).max() <= 1e-12


def test_projection_beats_random_feasible_points():
    rng = np.random.default_rng(7)
    n = 7
    Q = rng.standard_normal((n, n))
    S = project_graph(Q.copy())
    for i in range(n):
        d_star = np.linalg.norm(S[i] - Q[i])
        for _ in range(100):
            s = rng.random(n)
            s[i] = 0.0
            s /= s.sum()
            assert np.linalg.norm(s - Q[i]) >= d_star - 1e-12


def test_weight_qp_matrix_psd_and_symmetric():
    state = random_state(dims=(7, 5, 6), layer_sizes=(4, 3), seed=8)
    A, f = weight_qp(state)
    assert np.array_equal(A, A.T)
    rng = np.random.default_rng(9)
    for _ in range(200):
        x = rng.standard_normal(3)
        assert x @ A @ x >= -1e-9


def test_weights_single_view():
    state = random_state(dims=(6,), seed=10, alpha=[1.0])
    assert np.array_equal(update_view_weights(state), [1.0])


def test_weights_identical_views_tie():
    state = random_state(dims=(6, 6), seed=11, alpha=[0.3, 0.7])
    state.stacks[1] = state.stacks[0]
    alpha = update_view_weights(state)
    assert np.allclose(alpha, [0.5, 0.5], atol=1e-9)


def test_weights_match_grid_oracle():
    rng = np.random.default_rng(12)
    for trial in range(10):
        state = random_state(dims=(6, 7, 5), layer_sizes=(3,), n=10, seed=100 + trial)
        # moderate Gram scale keeps the grid-gap below the tolerance
        for st in state.stacks:
            st.top = st.top / np.sqrt(np.linalg.norm(st.top.T @ st.top))
        alpha = update_view_weights(state)
        A, f = weight_qp(state)

        def objective(a):
            return float(0.5 * a @ A @ a - f @ a)

        best = np.inf
        for i in range(101):
            for j in range(101 - i):
                a = np.array([i, j, 100 - i - j]) / 100.0
                best = min(best, objective(a))
        assert objective(alpha) <= best + 1e-12
        assert abs(objective(alpha) - best) <= 1e-4


def test_weights_kkt_stationarity():
    state = random_state(dims=(8, 5, 7), layer_sizes=(4, 2), seed=13)
    alpha = update_view_weights(state)
    A, f = weight_qp(state)
    grad = A @ alpha - f
    mu = grad.min()
    assert (grad[alpha > 1e-12] - mu).max() <= 1e-6
    assert np.all(grad >= mu - 1e-6)


def test_weights_never_worsen_graph_fit():
    for seed in range(8):
        state = random_state(dims=(6, 8), layer_sizes=(3,), seed=40 + seed)
        before = np.linalg.norm(state.S.dense() - compute_Q(state)) ** 2
        state.alpha = update_view_weights(state)
        after = np.linalg.norm(state.S.dense() - compute_Q(state)) ** 2
        assert after <= before + 1e-9


def test_simplex_projection_basics():
    v = project_to_simplex(np.array([0.2, 0.3, 0.5]))
    assert np.allclose(v, [0.2, 0.3, 0.5], atol=1e-15)
    v = project_to_simplex(np.array([10.0, -5.0, 0.0]))
    assert np.allclose(v, [1.0, 0.0, 0.0], atol=1e-12)
    assert abs(v.sum() - 1) <= 1e-12



def test_graph_projection_holds_few_nxn_arrays():
    # Q projected in its own buffer, and boolean masks: about 0.26 arrays of
    # n x n floats (1.26 with a copy of Q, 6.1 with the sort-based projection)
    n = 1000
    Q = gram_similarity(np.random.default_rng(0).random((3, n)))
    expected = project_graph(Q.copy())
    arrays = traced_peak(project_graph, Q) / Q.nbytes
    assert arrays <= 0.5
    assert np.array_equal(Q, expected)


def test_graph_step_with_a_non_finite_top_leaves_s_untouched():
    # the tops are checked before any block of Q is formed
    state = random_state(dims=(6, 8), n=BLOCK_ROWS + 5, seed=11)
    state.stacks[1].top[0, BLOCK_ROWS + 2] = np.nan
    before = state.S.dense()
    with pytest.raises(ValueError, match="finite tops"):
        state.S = update_consensus_graph(state.alpha, state.stacks)
    assert np.array_equal(state.S.dense(), before)


@pytest.mark.parametrize("case", ["most entries cut", "large row sums", "most entries cut once projected"])
def test_graph_step_holds_some_graphs_as_arrays(case, monkeypatch):
    import mvclust.consensus

    kernel = mvclust.consensus._project_graph_block
    projected = []

    def counted(B, diag):
        projected.append(len(diag))
        return kernel(B, diag)

    monkeypatch.setattr(mvclust.consensus, "_project_graph_block", counted)
    n = 2 * BLOCK_ROWS + 3
    rng = np.random.default_rng(4)
    if case == "most entries cut":
        # a correction C would cost more than S itself; Q's row sums stay
        # below ROW_SUM_LIMIT, so the cut count alone decides
        G = rng.random((3, n)) ** 8
        G *= 2.0 / np.sqrt((G.T @ G.sum(axis=1)).mean())
        assert (G.T @ G.sum(axis=1)).max() <= ROW_SUM_LIMIT
    elif case == "large row sums":
        # Q near 1e6 and each row spread by less than 1/(n - 1): every entry
        # is kept, and theta_i from the row sums would be off by about 1e-10
        G = np.vstack([np.full(n, 1e3), 0.01 * rng.random(n)])
    else:
        # the first block passes the check before its projection and fails
        # the one after it, as Michelot's thresholds rise
        G = np.random.default_rng(11).random((3, n)) ** 2
        G /= np.sqrt((G.T @ G.sum(axis=1)).mean())
        assert (G.T @ G.sum(axis=1)).max() <= ROW_SUM_LIMIT
    graph = graph_from_tops(G)
    assert isinstance(graph.C, np.ndarray) and graph.G.shape == (0, n)
    S = graph.dense()
    assert np.abs(S.sum(axis=1) - 1.0).max() <= 1e-12
    Q = gram_similarity(G)
    expected = project_graph(Q.copy())
    assert np.abs(S - expected).max() <= 1e-12 * max(1.0, Q.max())
    if case == "most entries cut once projected":
        # the first block's failing rows hold at most CUT_SHARE of its
        # entries at or below theta_i from the row sums, and cut more: the
        # kernel projects those rows, then the array's own blocks
        theta = (G.T @ G.sum(axis=1) - np.einsum("ij,ij->j", G, G) - 1.0) / (n - 1)
        off = ~np.eye(n, dtype=bool)[:BLOCK_ROWS]
        low = (Q[:BLOCK_ROWS] <= theta[:BLOCK_ROWS, None]) & off
        fail = np.flatnonzero(low.any(axis=1))
        cut = (expected[fail] == 0) & off[fail]
        assert low.sum() <= CUT_SHARE * n * BLOCK_ROWS < cut.sum()
        assert projected == [fail.size, BLOCK_ROWS, BLOCK_ROWS, 3]
    else:
        # both are found before the scan projects a block, so the kernel
        # runs only on the array's own blocks and the step costs what the
        # array does
        assert projected == [BLOCK_ROWS, BLOCK_ROWS, 3]
    if case == "most entries cut":
        assert (expected > 0).sum() < (1 - CUT_SHARE) * n * n


def test_graph_step_rejects_an_overflowing_q():
    G = np.full((2, 2 * BLOCK_ROWS + 3), 1e200)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite Q"):
        graph_from_tops(G)


@pytest.mark.parametrize(
    "G, message",
    [
        (np.ones((2, 1)), "at least 2 samples"),
        # every q_j = 1e308 is finite, and Q's row sums, 3e308, are not
        (np.full((1, 3), 1e154), "finite row sums of Q"),
        # the ROW_SUM_LIMIT test takes Q's row sums for |Q|'s, which only
        # nonnegative tops make equal
        (np.array([[0.5, -1e-300, 0.5]]), "nonnegative finite tops"),
    ],
    ids=["one sample", "row sums overflow", "negative top"],
)
def test_graph_step_rejects_tops_it_cannot_project(G, message):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
        graph_from_tops(G)


def test_graph_parts_must_agree():
    with pytest.raises(ValueError, match=r"theta \(4,\) and C \(4, 4\) do not match"):
        ConsensusGraph(np.ones((1, 3)), np.zeros(4), np.zeros((4, 4)))
    with pytest.raises(ValueError, match=r"C \(3, 4\) do not match"):
        ConsensusGraph(np.ones((1, 3)), np.zeros(3), np.zeros((3, 4)))
    with pytest.raises(ValueError, match="a graph is a 2-D matrix, got ndim=1"):
        ConsensusGraph.from_dense(np.ones(3))
    graph = ConsensusGraph.from_dense(np.full((3, 3), 0.5) - 0.5 * np.eye(3))
    assert graph.validate(3) is graph
    with pytest.raises(DimensionMismatchError, match=r"shape \(3, 3\), expected \(4, 4\)"):
        graph.validate(4)
