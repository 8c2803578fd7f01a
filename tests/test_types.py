from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from mvclust import FitConfig, LayerSpec, MultiViewDataset, validate_dataset
from mvclust.consensus import ConsensusGraph
from mvclust.errors import (
    DimensionMismatchError,
    LabelRangeError,
    LayerSpecError,
    MvclustError,
    NonFiniteEntryError,
    NonFiniteFactorError,
)

from conftest import graph_from_tops, random_state


def _graph_checks(state):
    """The state's check and its graph's own: each graph rejection below
    must come from both, with the same message."""
    return [state.validate, lambda: state.S.validate(state.n)]


def test_validate_wellformed_two_views():
    rng = np.random.default_rng(0)
    ds = MultiViewDataset(views=[rng.random((10, 50)), rng.random((10, 50))])
    out = validate_dataset(ds)
    assert out is ds
    assert out.n == 50 and out.num_views == 2 and out.view_dims == [10, 10]


def test_validate_sample_count_mismatch():
    rng = np.random.default_rng(0)
    ds = MultiViewDataset(views=[rng.random((10, 50)), rng.random((10, 49))])
    with pytest.raises(DimensionMismatchError):
        validate_dataset(ds)


def test_validate_nan_location():
    rng = np.random.default_rng(0)
    X = rng.random((10, 50))
    X[3, 7] = np.nan
    with pytest.raises(NonFiniteEntryError) as exc:
        validate_dataset(MultiViewDataset(views=[X, rng.random((10, 50))]))
    assert (exc.value.view, exc.value.row, exc.value.col) == (0, 3, 7)


def test_validate_inf_rejected():
    X = np.ones((3, 4))
    X[1, 2] = np.inf
    with pytest.raises(NonFiniteEntryError):
        validate_dataset(MultiViewDataset(views=[X]))


def test_validate_needs_two_samples():
    with pytest.raises(DimensionMismatchError):
        validate_dataset(MultiViewDataset(views=[np.ones((3, 1))]))


def test_validate_label_rules():
    views = [np.ones((3, 6))]
    validate_dataset(MultiViewDataset(views=views, labels=[0, 1, 2, 0, 1, 2]))
    with pytest.raises(LabelRangeError):  # wrong length
        validate_dataset(MultiViewDataset(views=views, labels=[0, 1, 0]))
    with pytest.raises(LabelRangeError):  # class 1 unused
        validate_dataset(MultiViewDataset(views=views, labels=[0, 0, 2, 2, 0, 2]))
    with pytest.raises(LabelRangeError):  # negative id
        validate_dataset(MultiViewDataset(views=views, labels=[0, -1, 0, 1, 1, 0]))


def test_validate_idempotent():
    rng = np.random.default_rng(3)
    ds = MultiViewDataset(views=[rng.random((4, 9))], labels=np.arange(9) % 3)
    once = validate_dataset(ds)
    twice = validate_dataset(once)
    assert twice is ds
    assert np.array_equal(twice.views[0], ds.views[0])
    assert np.array_equal(twice.labels, ds.labels)


def test_layer_spec_rules():
    LayerSpec([9, 3]).validate(k=3, min_view_dim=10)
    with pytest.raises(LayerSpecError):
        LayerSpec([9, 4]).validate(k=3)
    with pytest.raises(LayerSpecError):
        LayerSpec([11, 3]).validate(min_view_dim=10)
    with pytest.raises(LayerSpecError):
        LayerSpec([0, 3]).validate()
    with pytest.raises(LayerSpecError):
        LayerSpec([]).validate()
    # non-decreasing widths are allowed
    LayerSpec([4, 6, 3]).validate(k=3, min_view_dim=8)


def test_fit_config_validation():
    layers = LayerSpec([4, 2])
    FitConfig(beta=0.5, layers=layers)
    FitConfig(beta=0.5, layers=layers, max_outer_iters=0)
    for beta in (0.0, np.inf, np.nan):
        with pytest.raises(MvclustError):
            FitConfig(beta=beta, layers=layers)
    with pytest.raises(MvclustError):
        FitConfig(beta=1.0, layers=layers, max_outer_iters=-1)
    for tol in (-1e-9, np.nan, np.inf):
        with pytest.raises(MvclustError):
            FitConfig(beta=1.0, layers=layers, tol_rel_objective=tol)
    with pytest.raises(MvclustError):
        FitConfig(beta=1.0, layers=layers, restarts=0)
    FitConfig(beta=1.0, layers=layers, rng_seed=0)
    with pytest.raises(MvclustError):
        FitConfig(beta=1.0, layers=layers, rng_seed=-1)


def test_model_state_invariants_on_random_state():
    state = random_state(seed=5)
    state.validate()
    assert np.allclose(state.S.dense().sum(axis=1), 1.0, atol=1e-9)
    assert state.S.dense().min() >= 0 and np.all(np.diag(state.S.dense()) == 0)
    assert abs(state.alpha.sum() - 1.0) <= 1e-12


def test_model_state_rejects_bad_graph():
    for case, message in [
        ("negative", "negative or NaN entry"),
        ("diagonal", "nonzero diagonal entry"),
        ("row sum", "row sums deviate from 1"),
    ]:
        state = random_state(seed=6)
        S = state.S.dense()
        if case == "negative":
            S[0, 1] = -0.1
        elif case == "diagonal":
            S[2, 2] = 0.5
        else:
            S[0, 1] += 0.1
        state = replace(state, S=S)
        for check in _graph_checks(state):
            with pytest.raises(MvclustError, match=message):
                check()
    state = random_state(seed=6)
    state.alpha = state.alpha * 0.9
    with pytest.raises(MvclustError):
        state.validate()
    state = random_state(seed=6)
    state.stacks[0].top[0, 0] = -1e-3
    with pytest.raises(MvclustError):
        state.validate()


def test_model_state_rejects_a_nan_graph_entry():
    state = random_state(seed=6)
    S = state.S.dense()
    S[0, 1] = np.nan
    for check in _graph_checks(replace(state, S=S)):
        with pytest.raises(MvclustError, match="negative or NaN entry"):
            check()


@pytest.mark.parametrize("part", ["G", "theta", "C"])
def test_model_state_rejects_a_non_finite_graph_structure(part):
    state = random_state(seed=6)
    graph = graph_from_tops(np.ones((2, state.n)))
    G, theta = graph.G.copy(), graph.theta.copy()
    C = sparse.csr_array(([0.0], ([0], [1])), shape=graph.shape)
    if part == "G":
        G[1, 3] = np.nan
    elif part == "theta":
        theta[3] = np.inf
    else:
        C.data[0] = np.nan
    for check in _graph_checks(replace(state, S=ConsensusGraph(G, theta, C))):
        with pytest.raises(MvclustError, match="non-finite top, threshold or correction"):
            check()


def test_model_state_rejects_nan_row_sums():
    # finite tops whose Gram overflows: every entry of S is +inf off the
    # diagonal, so the smallest is 0, but the row sums are inf - inf = NaN;
    # validate names the overflowing Q before it forms a row sum, so with
    # no RuntimeWarning of its own
    state = random_state(seed=6)
    n = state.n
    with np.errstate(over="ignore", invalid="ignore"):
        S = ConsensusGraph(np.full((1, n), 1e155), np.zeros(n), sparse.csr_array((n, n)))
        assert np.isnan(S.row_sums()).all()
    for check in _graph_checks(replace(state, S=S)):
        with pytest.raises(MvclustError, match="non-finite Q"):
            check()


@pytest.mark.parametrize(
    "alpha, message",
    [
        ([np.nan, 1.0], "negative or NaN weight"),
        ([np.inf, 0.0], "alpha sums to"),
        ([0.5, 0.25, 0.25], "one weight per view"),
    ],
)
def test_model_state_rejects_non_finite_weights(alpha, message):
    state = random_state(seed=6)
    state.alpha = np.array(alpha)
    with pytest.raises(MvclustError, match=message):
        state.validate()


@pytest.mark.parametrize("layer", [0, 1, None])
def test_model_state_names_a_non_finite_factor(layer):
    # default random_state: views 8 and 6 wide, layers 4,2
    state = random_state(seed=7)
    if layer is None:
        state.stacks[1].top[0, 3] = np.nan
    else:
        state.stacks[1].mappings[layer][1, 0] = np.inf
    with pytest.raises(NonFiniteFactorError) as caught:
        state.validate()
    err = caught.value
    assert isinstance(err, MvclustError)
    assert (err.view, err.layer, err.iteration) == (1, layer, None)
    where = "top" if layer is None else f"layer {layer}"
    assert str(err).startswith(f"view 1: {where}: non-finite")


@pytest.mark.parametrize(
    "case",
    ["no mapping", "Z chain", "top rows", "top samples", "non-finite Z", "non-finite top", "stack count"],
)
def test_factor_stack_checks_shape_chain_and_top(case):
    # default random_state: views 8 and 6 wide, layers 4,2, n = 12
    state = random_state(seed=7)
    stack = state.stacks[0]
    stack.validate(d=8, n=12)
    error, message = DimensionMismatchError, None
    if case == "stack count":
        state.stacks.pop()
        message = "one factor stack per view"
    elif case == "no mapping":
        stack.mappings, error = [], MvclustError
    elif case == "Z chain":
        stack.mappings[1] = np.ones((3, 2))
    elif case == "top rows":
        stack.top = np.ones((3, 12))
    elif case == "top samples":
        stack.top = np.ones((2, 11))
    elif case == "non-finite Z":
        stack.mappings[0][0, 0], error = np.nan, MvclustError
    else:
        stack.top[0, 0], error = np.inf, MvclustError
    with pytest.raises(error, match=message):
        state.validate()
