import argparse
import json

import numpy as np
import pytest

from mvclust import FitConfig, LayerSpec, MultiViewDataset, fit_with_restarts, generate_synthetic
from mvclust.cli import DEFAULT_BETA_GRID, build_parser, main, parse_beta

from conftest import hierarchical_dataset
from mvclust.dataio import load_dataset, save_dataset


def make_dataset_dir(tmp_path, name="d", **kw):
    args = [
        "synth", "--n", "90", "--k", "3", "--dims", "24,30,25",
        "--separation", "10", "--sigma", "0.5", "--seed", "7",
        "--out", str(tmp_path / name),
    ]
    assert main(args) == 0
    return tmp_path / name


def test_parse_beta_forms():
    assert parse_beta("0.125") == 0.125
    assert parse_beta("2^-3") == 0.125
    assert parse_beta("2^7") == 128.0
    for text in ("0", "-1", "2^-2000", "inf", "nan", "2^2000", "2^x", "x"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_beta(text)


def test_default_beta_grid_is_odd_exponents():
    assert list(DEFAULT_BETA_GRID) == [2.0**e for e in (-7, -5, -3, -1, 1, 3, 5, 7)]


def test_synth_roundtrip_and_determinism(tmp_path):
    d1 = make_dataset_dir(tmp_path, "d1")
    d2 = make_dataset_dir(tmp_path, "d2")
    for f in ("view0.txt", "view1.txt", "view2.txt", "labels.txt"):
        assert (d1 / f).read_text() == (d2 / f).read_text()
    manifest = json.loads((d1 / "manifest.json").read_text())
    assert manifest["k"] == 3 and len(manifest["view_files"]) == 3


def test_synth_rejects_bad_k(tmp_path):
    code = main(["synth", "--n", "10", "--k", "0", "--dims", "4",
                 "--out", str(tmp_path / "x")])
    assert code != 0


# too few samples for k = 3, and a view too narrow for 3 equidistant centers
@pytest.mark.parametrize("n,dims", [("4", "5"), ("30", "5,1")])
def test_synth_infeasible_arguments_exit_cleanly(tmp_path, n, dims):
    out = tmp_path / "x"
    code = main(["synth", "--n", n, "--k", "3", "--dims", dims,
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("geometry", [
    ["--sigma", "-1"],
    ["--sigma", "inf"],
    ["--sigma", "nan", "--separation", "nan"],
    ["--separation", "inf"],
])
def test_synth_bad_noise_or_separation_exits_cleanly(tmp_path, geometry):
    out = tmp_path / "x"
    code = main(["synth", "--n", "30", "--k", "3", "--dims", "5,6",
                 *geometry, "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_cluster_end_to_end(tmp_path):
    data = make_dataset_dir(tmp_path)
    out = tmp_path / "r.json"
    code = main([
        "cluster", "--data", str(data), "--layers", "21,9,3", "--beta", "0.125",
        "--max-iter", "40", "--pretrain-iters", "40", "--restarts", "2",
        "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["metrics"] is not None
    assert report["metrics"]["acc"] >= 0.9
    assert len(report["labels"]) == 90
    assert len(report["restarts"]) == 2
    assert abs(sum(report["alpha"]) - 1.0) <= 1e-9


def test_cluster_deterministic(tmp_path):
    data = make_dataset_dir(tmp_path)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main([
            "cluster", "--data", str(data), "--layers", "9,3", "--beta", "2^-3",
            "--max-iter", "10", "--pretrain-iters", "25", "--seed", "5",
            "--out", str(out),
        ]) == 0
        outs.append(json.loads(out.read_text()))
    assert outs[0]["labels"] == outs[1]["labels"]
    assert outs[0]["objective_history"] == outs[1]["objective_history"]


def test_cluster_normalize_none_fits_the_views_as_given(tmp_path):
    ds = generate_synthetic(n=30, k=3, n_views=2, dims=(8, 9), separation=10.0, noise_sigma=0.5, seed=2)
    data = tmp_path / "scaled"
    save_dataset(MultiViewDataset(views=[1e3 * ds.views[0], ds.views[1]], labels=ds.labels), data)
    histories = {}
    for normalize in ("none", "sample"):
        out = tmp_path / f"{normalize}.json"
        assert main([
            "cluster", "--data", str(data), "--layers", "6,3", "--beta", "0.5", "--max-iter", "3",
            "--pretrain-iters", "10", "--restarts", "2", "--seed", "4", "--normalize", normalize,
            "--out", str(out),
        ]) == 0
        histories[normalize] = json.loads(out.read_text())["objective_history"]
    cfg = FitConfig(
        beta=0.5, layers=LayerSpec([6, 3]), max_outer_iters=3, pretrain_iters=10, restarts=2, rng_seed=4
    )
    expected = fit_with_restarts(load_dataset(data), cfg).objective_history
    assert histories["none"] == expected.tolist()
    assert histories["none"] != histories["sample"]


def test_cluster_rejects_negative_beta(tmp_path):
    # one loop keeps one dataset; every case fails at parse time, before loading it
    data = make_dataset_dir(tmp_path)
    out = tmp_path / "out"
    betas = ("-1", "inf", "1e400", "nan", "2^2000")
    cases = [["cluster", "--layers", "9,3", "--beta", b] for b in betas]
    cases.append(["sweep", "--beta-grid", "0.5,2^1025"])
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--data", str(data), "--out", str(out)])
        assert exc.value.code == 2, argv
        assert not out.exists()


def test_cluster_depth_two_accepted(tmp_path):
    data = make_dataset_dir(tmp_path)
    out = tmp_path / "r2.json"
    code = main([
        "cluster", "--data", str(data), "--layers", "9,3", "--beta", "0.5",
        "--max-iter", "8", "--pretrain-iters", "20", "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["config"]["layers"] == [9, 3]


def test_cluster_wrong_last_layer_fails(tmp_path):
    data = make_dataset_dir(tmp_path)
    code = main([
        "cluster", "--data", str(data), "--layers", "9,4", "--beta", "0.5",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code != 0
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("cluster", "--kmeans-restarts", "0"),
    ("cluster", "--restarts", "0"),
    ("cluster", "--max-iter", "-1"),
    ("cluster", "--seed", "-1"),
    ("cluster", "--tol", "inf"),
    ("cluster", "--tol", "-1"),
    ("cluster", "--tol", "nan"),
    ("sweep", "--pretrain-iters", "0"),
    ("sweep", "--seed", "-1"),
    ("sweep", "--layer-grid", ""),
    ("sweep", "--k", "1"),
    ("sweep", "--k", "0"),
    ("synth", "--seed", "-1"),
    # removed: the view count is len(--dims), the default grid has three
    # layers, and the normalizations are sample and none
    ("synth", "--views", "1"),
    ("sweep", "--depth", "3"),
    ("cluster", "--normalize", "minmax"),
    # text that is not a number
    ("cluster", "--tol", "abc"),
    ("cluster", "--max-iter", "2.5"),
    ("sweep", "--layer-grid", "9,x"),
])
def test_counts_below_one_rejected_at_parse_time(tmp_path, command, flag, value):
    data = make_dataset_dir(tmp_path)
    out = tmp_path / "out"
    if command == "synth":
        argv = ["synth", "--n", "30", "--k", "3", "--dims", "5"]
    else:
        argv = [command, "--data", str(data), "--max-iter", "2", "--pretrain-iters", "5"]
    argv += [flag, value, "--out", str(out)]
    if command == "cluster":
        argv += ["--layers", "9,3", "--beta", "0.5"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not out.exists()


def test_zero_iteration_cap_and_seed_parse():
    # 0 is a valid outer-iteration cap and a valid seed; only negatives are refused
    args = build_parser().parse_args([
        "cluster", "--data", "d", "--layers", "3", "--beta", "1", "--out", "r.json",
        "--max-iter", "0", "--seed", "0", "--tol", "0",
    ])
    assert (args.max_iter, args.seed, args.tol) == (0, 0, 0.0)


def test_sweep_small_grid(tmp_path):
    data = make_dataset_dir(tmp_path)
    out = tmp_path / "sweep.tsv"
    code = main([
        "sweep", "--data", str(data), "--beta-grid", "2^-3,2^1",
        "--layer-grid", "9,3", "--layer-grid", "12,3",
        "--max-iter", "6", "--pretrain-iters", "15", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 4  # header + 2 betas x 2 layer specs
    header = lines[0].split("\t")
    assert header[:4] == ["cell", "beta", "layers", "final_objective"]
    accs = [float(line.split("\t")[6]) for line in lines[1:]]
    assert all(0 <= a <= 1 for a in accs)


def test_sweep_takes_each_tall_views_qr_once(tmp_path, monkeypatch):
    # every cell fits the same views: a 2 x 2 grid over two views with
    # d >= 2n takes each view's R once, not once per cell
    import mvclust.fitting as fitting

    ds = generate_synthetic(n=30, k=3, n_views=2, dims=(70, 64), separation=10.0, noise_sigma=0.5, seed=3)
    save_dataset(ds, tmp_path / "tall", name="tall")
    shapes = []
    factor = fitting.row_space_factor
    monkeypatch.setattr(fitting, "row_space_factor", lambda X: shapes.append(X.shape) or factor(X))
    code = main([
        "sweep", "--data", str(tmp_path / "tall"), "--beta-grid", "0.5,2.0",
        "--layer-grid", "6,3", "--layer-grid", "9,3", "--max-iter", "2", "--pretrain-iters", "5",
        "--out", str(tmp_path / "sweep.tsv"),
    ])
    assert code == 0
    assert len((tmp_path / "sweep.tsv").read_text().strip().splitlines()) == 1 + 4
    assert shapes == [(70, 30), (64, 30)]


def test_sweep_rejects_too_many_views_before_any_qr(tmp_path, monkeypatch, caplog):
    # cluster and sweep check the views alike: 11 views fail before the
    # tall view 0 is factored
    import mvclust.fitting as fitting

    rng = np.random.default_rng(0)
    data = tmp_path / "many"
    views = [rng.random((60, 20))] + [rng.random((12, 20)) for _ in range(10)]
    save_dataset(MultiViewDataset(views=views), data)
    shapes = []
    factor = fitting.row_space_factor
    monkeypatch.setattr(fitting, "row_space_factor", lambda X: shapes.append(X.shape) or factor(X))
    out = tmp_path / "sweep.tsv"
    code = main([
        "sweep", "--data", str(data), "--beta-grid", "0.5", "--layer-grid", "4,2",
        "--max-iter", "1", "--pretrain-iters", "2", "--out", str(out),
    ])
    assert code == 1
    assert "11 views; the exact view-weight solver takes at most 10" in caplog.text
    assert shapes == [] and not out.exists()


def test_sweep_rejects_a_layer_wider_than_n_before_any_qr(tmp_path, monkeypatch, caplog):
    import mvclust.fitting as fitting

    rng = np.random.default_rng(0)
    data = tmp_path / "tall"
    save_dataset(MultiViewDataset(views=[rng.random((60, 20)), rng.random((70, 20))]), data)
    calls = []
    monkeypatch.setattr(fitting, "row_space_factor", calls.append)
    out = tmp_path / "sweep.tsv"
    code = main([
        "sweep", "--data", str(data), "--beta-grid", "0.5", "--layer-grid", "25,3",
        "--max-iter", "1", "--pretrain-iters", "2", "--out", str(out),
    ])
    assert code == 1
    assert "layer width 25 exceeds sample count 20" in caplog.text
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("command", [
    ["cluster", "--layers", "6,3", "--beta", "0.5"],
    ["sweep", "--beta-grid", "0.5", "--layer-grid", "6,3"],
])
def test_a_constant_view_exits_1_before_any_qr(tmp_path, monkeypatch, caplog, command):
    # view 1 is 3n tall and constant: both commands name it, with no QR
    import mvclust.fitting as fitting

    ds = generate_synthetic(n=30, k=3, n_views=2, dims=(12, 90), separation=10.0, noise_sigma=0.5, seed=3)
    data = tmp_path / "const"
    save_dataset(MultiViewDataset(views=[ds.views[0], np.full((90, 30), 2.0)], labels=ds.labels), data)
    calls = []
    monkeypatch.setattr(fitting, "row_space_factor", calls.append)
    out = tmp_path / "out"
    code = main([*command, "--data", str(data), "--max-iter", "1", "--pretrain-iters", "2", "--out", str(out)])
    assert code == 1
    assert "view 1 is constant: all 30 samples are the same vector" in caplog.text
    assert calls == [] and not out.exists()


def test_sweep_deterministic(tmp_path):
    data = make_dataset_dir(tmp_path)
    first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
    base = [
        "sweep", "--data", str(data), "--beta-grid", "0.5,2.0",
        "--layer-grid", "9,3", "--max-iter", "5", "--pretrain-iters", "15",
    ]
    assert main(base + ["--out", str(first)]) == 0
    assert main(base + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_empty_beta_grid_rejected(tmp_path):
    data = make_dataset_dir(tmp_path)
    with pytest.raises(SystemExit):
        main(["sweep", "--data", str(data), "--beta-grid", "", "--out", str(tmp_path / "s.tsv")])


def test_sweep_default_grid_sizes(tmp_path):
    # default grids validated against the dataset before any fitting happens
    data = make_dataset_dir(tmp_path)
    out = tmp_path / "never.tsv"
    code = main(["sweep", "--data", str(data), "--out", str(out)])
    # 7k = 21 <= min dim 24 is fine but 15k = 45 exceeds it: whole grid rejected
    assert code != 0
    assert not out.exists()


def test_ablate_three_depths(tmp_path):
    # the depth ablation [k], [l2,k], [l1,l2,k] is a sweep over three specs
    d = tmp_path / "hier"
    ds = hierarchical_dataset(n=90, n_views=2, dims=(30, 24), seed=1)
    save_dataset(ds, d, name="hier")
    out = tmp_path / "depths.tsv"
    code = main([
        "sweep", "--data", str(d), "--beta-grid", "0.5",
        "--layer-grid", "3", "--layer-grid", "6,3", "--layer-grid", "12,6,3",
        "--max-iter", "10", "--pretrain-iters", "25", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    assert [line.split("\t")[0] for line in lines[1:]] == ["0", "1", "2"]
    assert [line.split("\t")[2] for line in lines[1:]] == ["3", "6,3", "12,6,3"]


def _unlabelled_dir(tmp_path):
    """A synthetic directory whose manifest declares k = 3 and names no labels."""
    data = tmp_path / "u"
    assert main(["synth", "--n", "60", "--k", "3", "--dims", "50,48", "--seed", "7", "--out", str(data)]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    (data / manifest["labels_file"]).unlink()
    manifest["labels_file"] = None
    (data / "manifest.json").write_text(json.dumps(manifest))
    return data


def test_cluster_checks_layers_against_the_manifest_k(tmp_path):
    data = _unlabelled_dir(tmp_path)
    out = tmp_path / "r.json"
    assert main(["cluster", "--data", str(data), "--layers", "6,4", "--beta", "0.5", "--out", str(out)]) == 1
    assert not out.exists()


def test_sweep_sizes_its_default_grid_by_the_manifest_k(tmp_path):
    from mvclust.cli import _layer_grid

    data = _unlabelled_dir(tmp_path)
    out = tmp_path / "s.tsv"
    code = main([
        "sweep", "--data", str(data), "--beta-grid", "0.5",
        "--max-iter", "1", "--pretrain-iters", "2", "--out", str(out),
    ])
    assert code == 0
    rows = [line.split("\t") for line in out.read_text().strip().splitlines()[1:]]
    assert [row[2] for row in rows] == [",".join(map(str, spec)) for spec in _layer_grid(3)]


@pytest.mark.parametrize("k", ["2", "4"])
def test_sweep_k_conflicting_with_the_manifest_fails(tmp_path, k):
    data = _unlabelled_dir(tmp_path)
    out = tmp_path / "s.tsv"
    code = main([
        "sweep", "--data", str(data), "--k", k, "--layer-grid", f"9,{k}", "--beta-grid", "0.5",
        "--max-iter", "1", "--pretrain-iters", "2", "--out", str(out),
    ])
    assert code == 1
    assert not out.exists()


def test_sweep_k_conflicting_with_the_labels_fails(tmp_path):
    data = make_dataset_dir(tmp_path)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["k"] = None
    (data / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "s.tsv"
    code = main([
        "sweep", "--data", str(data), "--k", "4", "--layer-grid", "9,3", "--beta-grid", "0.5",
        "--max-iter", "1", "--pretrain-iters", "2", "--out", str(out),
    ])
    assert code == 1
    assert not out.exists()


def test_layer_grid_defaults():
    from mvclust.cli import _layer_grid

    k = 3
    grid = _layer_grid(k)
    assert len(grid) == 9
    assert all(spec[-1] == k for spec in grid)
    assert sorted({spec[0] for spec in grid}) == [7 * k, 11 * k, 15 * k]
    assert sorted({spec[1] for spec in grid}) == [2 * k, 3 * k, 4 * k]


def test_ablate_depth_one_matches_cluster(tmp_path):
    # with several restarts both commands must cluster the winning run's graph
    data = make_dataset_dir(tmp_path)
    for restarts in ("1", "3"):
        common = ["--max-iter", "8", "--pretrain-iters", "20", "--seed", "3",
                  "--restarts", restarts]
        table = tmp_path / f"depths{restarts}.tsv"
        assert main(["sweep", "--data", str(data), "--beta-grid", "0.5",
                     "--layer-grid", "3", "--layer-grid", "6,3", "--layer-grid", "12,6,3",
                     *common, "--out", str(table)]) == 0
        report_path = tmp_path / f"depth1_{restarts}.json"
        assert main(["cluster", "--data", str(data), "--layers", "3", "--beta", "0.5",
                     *common, "--out", str(report_path)]) == 0
        depth1_row = table.read_text().strip().splitlines()[1].split("\t")
        assert depth1_row[2] == "3"
        report = json.loads(report_path.read_text())
        assert float(depth1_row[6]) == pytest.approx(report["metrics"]["acc"], abs=1e-12)
        assert float(depth1_row[3]) == report["objective_history"][-1]


def test_cluster_with_as_many_clusters_as_samples(tmp_path):
    # k = n: the graph's partition is the n singletons, with no embedding
    rng = np.random.default_rng(0)
    views = [rng.random((6, 4)), rng.random((5, 4))]
    data = tmp_path / "kn"
    save_dataset(MultiViewDataset(views=views, labels=[2, 0, 3, 1]), data)
    out = tmp_path / "r.json"
    assert main(["cluster", "--data", str(data), "--layers", "4", "--beta", "0.5",
                 "--max-iter", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["labels"] == [0, 1, 2, 3]
    assert report["metrics"]["acc"] == 1.0


@pytest.mark.parametrize("target", ["in a missing directory", "a directory"])
@pytest.mark.parametrize("command", [
    ["cluster", "--layers", "9,3", "--beta", "0.5"],
    ["sweep", "--beta-grid", "0.5,1", "--layer-grid", "9,3", "--layer-grid", "6,3"],
])
def test_an_unwritable_out_fails_before_any_fit(tmp_path, monkeypatch, caplog, command, target):
    import mvclust.cli as cli

    data = make_dataset_dir(tmp_path)
    fits = []
    fit_with_restarts = cli.fit_with_restarts

    def counted(*args, **kwargs):
        fits.append(args)
        return fit_with_restarts(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_with_restarts", counted)
    if target == "a directory":
        out = tmp_path / "outdir"
        out.mkdir()
        message = f"--out {out} is a directory"
    else:
        out = tmp_path / "nodir" / "result"
        message = f"--out directory {out.parent} does not exist"
    code = main([*command, "--data", str(data), "--max-iter", "1", "--pretrain-iters", "2",
                 "--out", str(out)])
    assert code == 1
    assert fits == []
    assert message in caplog.text
    assert not (tmp_path / "nodir").exists()  # --out's directory is not made either


@pytest.mark.parametrize("case, message", [
    ("cluster into one cluster", "cluster count must be >= 2, got 1"),
    ("sweep with no cluster count", "need labels, a manifest k, --k, or --layer-grid"),
    ("view file is a directory", "i/o failure: "),
])
def test_unfittable_input_exits_1_naming_the_cause(tmp_path, caplog, case, message):
    data = _unlabelled_dir(tmp_path)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["k"] = None
    (data / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    argv = ["--data", str(data), "--max-iter", "1", "--pretrain-iters", "2", "--out", str(out)]
    if case == "sweep with no cluster count":
        argv = ["sweep", "--beta-grid", "0.5", *argv]
    else:
        argv = ["cluster", "--layers", "3,1" if case == "cluster into one cluster" else "6,3",
                "--beta", "0.5", *argv]
    if case == "view file is a directory":
        view = data / manifest["view_files"][0]
        view.unlink()
        view.mkdir()
        message += f"[Errno 21] Is a directory: '{view}'"
    assert main(argv) == 1
    assert message in caplog.text
    assert not out.exists()
