import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mvclust import (
    ClusteringReport,
    generate_synthetic,
    kmeans,
    load_dataset,
    normalize_views,
    save_dataset,
    save_report,
    validate_dataset,
)
from mvclust.cli import main
from mvclust.dataio import read_matrix
from mvclust.errors import (
    InfeasibleGeometryError,
    LabelRangeError,
    MissingFileError,
    MissingManifestError,
    ParseError,
    ZeroColumnWarning,
)
from mvclust.metrics import accuracy

from conftest import direct_read_matrix, traced_peak


def toy_dataset(seed=0, labels=True):
    return generate_synthetic(
        n=24, k=3, n_views=2, dims=(5, 7), separation=6.0, noise_sigma=0.4, seed=seed
    )


def test_dataset_roundtrip(tmp_path):
    ds = toy_dataset()
    save_dataset(ds, tmp_path / "d", name="toy")
    back = load_dataset(tmp_path / "d")
    assert back.num_views == ds.num_views and back.n == ds.n
    for a, b in zip(ds.views, back.views):
        assert np.array_equal(a, b)
    assert np.array_equal(ds.labels, back.labels)


def test_small_toy_directory(tmp_path):
    d = tmp_path / "tiny"
    d.mkdir()
    (d / "manifest.json").write_text(
        json.dumps({"name": "tiny", "view_files": ["a.txt", "b.txt"]})
    )
    (d / "a.txt").write_text("1 2 3 4\n5 6 7 8\n")
    (d / "b.txt").write_text("1,0,0,1\n0,1,1,0\n2,2,2,2\n")
    ds = load_dataset(d)
    assert ds.n == 4 and ds.num_views == 2
    assert ds.view_dims == [2, 3]
    assert ds.labels is None


def test_missing_manifest(tmp_path):
    with pytest.raises(MissingManifestError):
        load_dataset(tmp_path)


def test_manifest_referencing_absent_file(tmp_path):
    d = tmp_path / "broken"
    d.mkdir()
    (d / "manifest.json").write_text(
        json.dumps({"name": "broken", "view_files": ["gone.txt"]})
    )
    with pytest.raises(MissingFileError) as exc:
        load_dataset(d)
    assert "gone.txt" in str(exc.value)


def test_manifest_without_view_files(tmp_path):
    # a bare string would otherwise be split into one-letter file names
    for raw in ({"name": "nv", "k": 2}, {"view_files": "view0.txt"}):
        (tmp_path / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(ParseError) as exc:
            load_dataset(tmp_path)
        assert exc.value.path == str(tmp_path / "manifest.json")
        assert "view_files" in str(exc.value)


def test_manifest_with_empty_view_files_names_the_file(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"view_files": []}))
    with pytest.raises(ParseError) as exc:
        load_dataset(tmp_path)
    assert exc.value.path == str(tmp_path / "manifest.json")


@pytest.mark.parametrize("k", [1, "3"])
def test_manifest_with_bad_k_names_the_file(tmp_path, k):
    (tmp_path / "manifest.json").write_text(json.dumps({"view_files": ["a.txt"], "k": k}))
    with pytest.raises(ParseError) as exc:
        load_dataset(tmp_path)
    assert exc.value.path == str(tmp_path / "manifest.json")


def test_manifest_with_non_string_view_file_names_the_file(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"view_files": ["a.txt", 0]}))
    with pytest.raises(ParseError) as exc:
        load_dataset(tmp_path)
    assert exc.value.path == str(tmp_path / "manifest.json")
    assert "view_files" in str(exc.value)


def test_manifest_with_non_string_labels_file_names_the_file(tmp_path):
    (tmp_path / "manifest.json").write_text(
        json.dumps({"view_files": ["a.txt"], "labels_file": 5})
    )
    with pytest.raises(ParseError) as exc:
        load_dataset(tmp_path)
    assert exc.value.path == str(tmp_path / "manifest.json")
    assert "labels_file" in str(exc.value)


def test_manifest_k_contradicting_labels(tmp_path):
    save_dataset(toy_dataset(), tmp_path / "d")
    manifest = tmp_path / "d" / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "k": 4}))
    with pytest.raises(LabelRangeError) as exc:
        load_dataset(tmp_path / "d")
    assert str(tmp_path / "d") in str(exc.value)
    assert "k=4" in str(exc.value) and "3 classes" in str(exc.value)


def test_manifest_not_an_object(tmp_path):
    (tmp_path / "manifest.json").write_text("[1, 2]")
    with pytest.raises(ParseError) as exc:
        load_dataset(tmp_path)
    assert exc.value.path == str(tmp_path / "manifest.json")


def test_matrix_parse_error_location(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1 2 3\n4 oops 6\n7 8 9\n")
    with pytest.raises(ParseError) as exc:
        read_matrix(f)
    assert exc.value.line == 2 and exc.value.col == 2


def test_matrix_ragged_rows(tmp_path):
    f = tmp_path / "ragged.txt"
    f.write_text("1 2 3\n4 5\n")
    with pytest.raises(ParseError) as exc:
        read_matrix(f)
    assert exc.value.line == 2


def test_labels_parse_and_validation(tmp_path):
    d = tmp_path / "lab"
    d.mkdir()
    (d / "manifest.json").write_text(
        json.dumps({"name": "lab", "view_files": ["x.txt"], "labels_file": "y.txt"})
    )
    (d / "x.txt").write_text("1 2 3 4\n")
    (d / "y.txt").write_text("0\n1\n1\n0\n")
    ds = load_dataset(d)
    assert np.array_equal(ds.labels, [0, 1, 1, 0])
    (d / "y.txt").write_text("0\nzero\n1\n0\n")
    with pytest.raises(ParseError) as exc:
        load_dataset(d)
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "name, text, line, col",
    [
        ("view0.txt", "1,2\n3 4\n5,6\n", 2, None),  # a whitespace line in a comma file
        ("view0.txt", "1 2\n\n3,4\n", 3, None),  # a comma line in a whitespace file
        ("view0.txt", "# header\n1 2\n", 1, 1),  # no comment lines
        ("view0.txt", "1,2,\n3,4,\n", 1, 3),  # a trailing comma leaves an empty last field
        ("view0.txt", "", None, None),
        ("view0.txt", " \n\t\n", None, None),
        ("view0.txt", "1 2\n3 1_000\n", 2, 2),  # only Python's float takes underscores
        ("view0.txt", "1 2\n\n3 1_000\n", 3, 2),  # the file's line, blank lines counted
        ("view0.txt", "1 2\n3 \u0661\n", 2, 2),  # a non-ASCII digit
        ("labels.txt", "0 1\n", 1, None),  # not flattened into two labels
        ("labels.txt", "0\n\n1.0\n", 3, 1),
        ("labels.txt", "0\n1_0\n", 2, 1),
        ("labels.txt", "", None, None),
        ("manifest.json", '{"view_files": ["v.txt"],\n  "k": }', 2, 8),
    ],
)
def test_format_edges_raise_parse_error(tmp_path, name, text, line, col):
    save_dataset(toy_dataset(), tmp_path)
    (tmp_path / name).write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_dataset(tmp_path)
    assert (exc.value.path, exc.value.line, exc.value.col) == (str(tmp_path / name), line, col)


@pytest.mark.parametrize(
    "name, data",
    [
        ("view0.txt", b"1 2\n\xff 3\n"),
        ("labels.txt", b"0\n\xff\n"),
        ("manifest.json", b'{"view_files": ["view0.txt"\xff]}'),
        ("labels.txt", b"99999999999999999999\n"),
    ],
)
def test_malformed_file_raises_parse_error_naming_it(tmp_path, caplog, name, data):
    save_dataset(toy_dataset(), tmp_path / "d")
    (tmp_path / "d" / name).write_bytes(data)
    with pytest.raises(ParseError) as exc:
        load_dataset(tmp_path / "d")
    assert exc.value.path == str(tmp_path / "d" / name)
    code = main([
        "cluster", "--data", str(tmp_path / "d"), "--layers", "3", "--beta", "0.5",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 1  # caught and logged: nothing escapes main as a traceback
    assert str(tmp_path / "d" / name) in caplog.text


SPELLINGS = [
    "0", "-0", "-0.0", "0e0", "1", "+2.5", "1e308", "-1e308", "1.7976931348623157e308",
    "5e-324", "-2.2250738585072009e-308", "nan", "NaN", "-nan", "inf", "-inf", "+inf",
    "Infinity", "-Infinity", "iNf",
]
NON_NUMBERS = ["oops", "1..2", "--1", "1e", "x1", "0x10", "nan1"]


@st.composite
def matrix_files(draw):
    """A text matrix in one delimiter, with blank lines and padding, and at most
    one fault: a ragged row or a token that is not a number."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    floats = st.floats().map(draw(st.sampled_from([repr, "%.17g".__mod__])))
    table = [[draw(st.one_of(st.sampled_from(SPELLINGS), floats)) for _ in range(cols)] for _ in range(rows)]
    comma = draw(st.booleans())
    fault = draw(st.sampled_from(["none", "extra", "short", "token"]))
    i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
    if fault == "extra":
        table[i].append("1")
    elif fault == "short" and i > 0 and cols > 1:
        table[i].pop()
    elif fault == "token":
        table[i][j] = draw(st.sampled_from(NON_NUMBERS + ([""] if comma else [])))
    pad = st.sampled_from(["", " ", "\t", "  "])
    lines = []
    for row in table:
        lines += draw(st.lists(st.sampled_from(["", "  ", "\t "]), max_size=2))
        sep = "," if comma else draw(st.sampled_from([" ", "\t", "  "]))
        lines.append(sep.join(draw(pad) + t + draw(pad) for t in row))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=matrix_files())
@example(text="0\n0,1")  # a comma file whose first row has one column: ragged at line 2
def test_read_matrix_agrees_with_direct_reader(tmp_path, text):
    f = tmp_path / "m.txt"
    f.write_text(text)
    try:
        want = direct_read_matrix(f)
    except ParseError as e:
        with pytest.raises(ParseError) as exc:
            read_matrix(f)
        assert (exc.value.line, exc.value.col) == (e.line, e.col)
        return
    got = read_matrix(f)
    assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)


def test_read_matrix_holds_little_more_than_its_result(tmp_path):
    # numpy's parser fills the array as it reads; a list of Python floats per
    # token held about 5x the array
    f = tmp_path / "m.txt"
    np.savetxt(f, np.random.default_rng(0).standard_normal((2000, 300)), fmt="%.17g")
    X = read_matrix(f)
    assert traced_peak(read_matrix, f) / X.nbytes <= 1.5


def test_normalize_three_four_five():
    ds = validate_dataset(
        type(toy_dataset())(views=[np.array([[3.0, 0.0], [4.0, 2.0]])])
    )
    out = normalize_views(ds)
    assert np.allclose(out.views[0][:, 0], [0.6, 0.8])


def test_normalize_idempotent_and_unit_norms():
    ds = toy_dataset(seed=1)
    once = normalize_views(ds)
    for X in once.views:
        assert np.abs(np.linalg.norm(X, axis=0) - 1).max() <= 1e-12
    twice = normalize_views(once)
    for a, b in zip(once.views, twice.views):
        assert np.abs(a - b).max() <= 1e-15


def test_normalize_zero_columns_flagged():
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    ds = validate_dataset(type(toy_dataset())(views=[X]))
    with pytest.warns(ZeroColumnWarning):
        out = normalize_views(ds)
    assert np.array_equal(out.views[0][:, 1], [0.0, 0.0])


def test_synthetic_zero_noise_identical_within_cluster():
    ds = generate_synthetic(
        n=12, k=3, n_views=2, dims=(4, 5), separation=5.0, noise_sigma=0.0, seed=2
    )
    for X in ds.views:
        for c in range(3):
            cols = X[:, ds.labels == c]
            assert np.abs(cols - cols[:, [0]]).max() == 0.0


def test_synthetic_single_cluster():
    ds = generate_synthetic(
        n=8, k=1, n_views=1, dims=(3,), separation=1.0, noise_sigma=0.1, seed=3
    )
    assert not ds.labels.any()


def test_synthetic_center_separation():
    sep = 7.5
    ds = generate_synthetic(
        n=20, k=4, n_views=1, dims=(6,), separation=sep, noise_sigma=0.0, seed=4
    )
    X = ds.views[0]
    centers = np.stack([X[:, ds.labels == c][:, 0] for c in range(4)])
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(centers[i] - centers[j]) == pytest.approx(sep, rel=1e-9)


def test_synthetic_determinism_and_validity():
    a = generate_synthetic(n=30, k=3, n_views=2, dims=(5, 6), separation=4.0, noise_sigma=0.3, seed=5)
    b = generate_synthetic(n=30, k=3, n_views=2, dims=(5, 6), separation=4.0, noise_sigma=0.3, seed=5)
    for Xa, Xb in zip(a.views, b.views):
        assert np.array_equal(Xa, Xb)
    assert np.array_equal(a.labels, b.labels)
    validate_dataset(a)


def test_synthetic_infeasible_geometry():
    with pytest.raises(InfeasibleGeometryError):
        generate_synthetic(n=20, k=5, n_views=1, dims=(3,), separation=1.0, noise_sigma=0.1, seed=6)


def test_synthetic_direct_kmeans_recovery():
    ds = generate_synthetic(
        n=300, k=3, n_views=3, dims=(20, 30, 25), separation=10.0, noise_sigma=0.5, seed=7
    )
    part = kmeans(ds.views[0].T, 3, restarts=5, seed=0)
    assert accuracy(part, ds.labels) >= 0.95


def _sample_report():
    return ClusteringReport(
        dataset="toy",
        k=3,
        labels=[0, 1, 2, 1],
        alpha=[0.25, 0.75],
        objective_history=[float(x) for x in np.linspace(10, 1, 150)],
        config={"beta": 0.125, "layers": [9, 3], "rng_seed": 1},
        timing={"fit_seconds": 1.5, "total_seconds": 2.0},
        metrics={"acc": 0.9, "nmi": 0.8, "pur": 0.91},
        restarts=[{"seed": 1, "final_objective": 1.0, "iters_run": 150, "converged": True, "wall_time": 1.5}],
    )


def test_report_roundtrip(tmp_path):
    report = _sample_report()
    p = tmp_path / "r.json"
    save_report(report, p)
    raw = json.loads(p.read_text())
    assert raw == asdict(report)
    assert raw["schema_version"] == 1
    assert len(raw["objective_history"]) == 150
    assert raw["objective_history"] == report.objective_history  # exact floats
