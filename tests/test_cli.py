"""End-to-end CLI checks through ``main(argv)``: artifacts and exit codes."""

import itertools
import json
import statistics

import numpy as np
import pytest

from dsirc import clustering, diffusion, unmixing
from dsirc.cli import main
from dsirc.core import (
    LabelMap,
    cube_to_cloud,
    load_envi,
    read_labels_csv,
    write_envi,
    write_labels_csv,
)


def make_scene(tmp_path, name="scene", **over):
    out = tmp_path / name
    argv = [
        "synth",
        "--out",
        str(out),
        "--height",
        over.get("height", "16"),
        "--width",
        over.get("width", "16"),
        "--bands",
        over.get("bands", "12"),
        "--endmembers",
        over.get("endmembers", "3"),
        "--noise",
        over.get("noise", "0.04"),
        "--seed",
        over.get("seed", "3"),
    ]
    assert main(argv) == 0
    return out


def grid_coords(height, width):
    rows, cols = np.divmod(np.arange(height * width), width)
    return np.column_stack([rows, cols])


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_all_artifacts(tmp_path, capsys):
    out = make_scene(tmp_path)
    for name in ("cube.hdr", "cube.raw", "gt.csv", "gt.ppm", "endmembers.csv", "abundances.csv"):
        assert (out / name).exists(), name
    cube = load_envi(str(out / "cube.hdr"), str(out / "cube.raw"))
    assert cube.shape == (12, 16, 16)
    gt, coords = read_labels_csv(str(out / "gt.csv"))
    assert gt.n == 256
    assert set(np.unique(gt.labels)) == {1, 2, 3}
    endmembers = np.loadtxt(out / "endmembers.csv", delimiter=",")
    assert endmembers.shape == (3, 12)
    assert "16x16x12" in capsys.readouterr().out


def test_synth_rejects_bad_config(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "x"), "--height", "0"]) == 2
    assert main(["synth", "--out", str(tmp_path / "y"), "--noise", "-1"]) == 2


@pytest.mark.parametrize(
    "noise, code, cause",
    [
        ("nan", 2, "configuration failed: noise must be finite and non-negative"),
        ("inf", 2, "configuration failed: noise must be finite and non-negative"),
        ("1e308", 1, "generation failed: noise 1e+308 overflows the float64 range"),
    ],
    ids=["nan", "inf", "1e308"],
)
def test_synth_non_finite_scene_writes_nothing(tmp_path, capsys, noise, code, cause):
    out = tmp_path / "scene"
    argv = ["synth", "--out", str(out), "--height", "6", "--width", "6", "--bands", "5"]
    assert main([*argv, "--noise", noise]) == code
    assert capsys.readouterr().err == f"dsirc: {cause}\n"
    assert not out.exists()


def test_synth_output_collision_is_io_error(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert main(["synth", "--out", str(blocker)]) == 2


# ---------------------------------------------------------------------------
# cluster


def test_cluster_kmeans_with_scoring(tmp_path, capsys):
    scene = make_scene(tmp_path)
    out = tmp_path / "run"
    code = main(
        [
            "cluster",
            str(scene / "cube.hdr"),
            str(scene / "cube.raw"),
            "--gt",
            str(scene / "gt.csv"),
            "--out",
            str(out),
            "--algorithm",
            "kmeans",
            "--k",
            "3",
            "--seed",
            "0",
        ]
    )
    assert code == 0
    for name in ("labels.csv", "labels.ppm", "labels.pgm", "params.txt", "metrics.json"):
        assert (out / name).exists(), name
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= metrics["kappa"] <= 1.0
    assert 0.0 < metrics["oa"] <= 1.0
    labels, _ = read_labels_csv(str(out / "labels.csv"))
    assert labels.n == 256
    assert set(np.unique(labels.labels)) <= {1, 2, 3}
    assert "oa=" in capsys.readouterr().out


def test_cluster_dsirc_end_to_end(tmp_path):
    scene = make_scene(tmp_path)
    out = tmp_path / "run"
    code = main(
        [
            "cluster",
            str(scene / "cube.hdr"),
            str(scene / "cube.raw"),
            "--gt",
            str(scene / "gt.csv"),
            "--out",
            str(out),
            "--k",
            "3",
            "--kn",
            "60",
            "--t",
            "10",
        ]
    )
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["oa"] >= 0.8
    params = (out / "params.txt").read_text()
    assert "algorithm = dsirc" in params
    assert "kn = 60" in params


def test_cluster_without_gt_skips_metrics(tmp_path):
    scene = make_scene(tmp_path)
    out = tmp_path / "run"
    code = main(
        [
            "cluster",
            str(scene / "cube.hdr"),
            str(scene / "cube.raw"),
            "--out",
            str(out),
            "--algorithm",
            "kmeans",
            "--k",
            "3",
        ]
    )
    assert code == 0
    assert not (out / "metrics.json").exists()
    assert (out / "labels.csv").exists()


def test_cluster_disconnected_graph_exits_one(tmp_path):
    scene = make_scene(tmp_path, noise="0.005")
    code = main(
        [
            "cluster",
            str(scene / "cube.hdr"),
            str(scene / "cube.raw"),
            "--out",
            str(tmp_path / "run"),
            "--algorithm",
            "sc",
            "--k",
            "3",
            "--kn",
            "3",
        ]
    )
    assert code == 1


@pytest.mark.parametrize("algorithm", ["dsirc", "dvic"])
def test_cluster_mode_pipeline_disconnected_graph_exits_one(tmp_path, capsys, algorithm):
    scene = make_scene(tmp_path, noise="0.005")
    cube = [str(scene / "cube.hdr"), str(scene / "cube.raw")]
    argv = ["cluster", *cube, "--out", str(tmp_path / "run"), "--algorithm", algorithm]
    assert main([*argv, "--k", "3", "--kn", "3"]) == 1
    assert capsys.readouterr().err.startswith("dsirc: clustering failed: KNN graph has ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("algorithm", ["dsirc", "dvic"])
def test_cluster_zero_automatic_bandwidth_exits_one_and_names_its_cause(tmp_path, capsys, algorithm):
    # The top 10 of 16 rows zero-filled, as a no-data block.
    scene = make_scene(tmp_path)
    data = load_envi(str(scene / "cube.hdr"), str(scene / "cube.raw"))
    data[:, :10, :] = 0.0
    cube = [str(tmp_path / "nodata.hdr"), str(tmp_path / "nodata.raw")]
    write_envi(data, *cube)
    argv = ["cluster", *cube, "--out", str(tmp_path / "run"), "--algorithm", algorithm]
    assert main([*argv, "--k", "3", "--kn", "100"]) == 1
    assert capsys.readouterr().err == (
        "dsirc: clustering failed: the automatic sigma0 is 0 at k_n = 100: at least half "
        "the pixels have 100 or more exact duplicate spectra; pass sigma0 or a larger k_n\n"
    )


def test_cluster_usage_errors(tmp_path):
    scene = make_scene(tmp_path)
    cube = [str(scene / "cube.hdr"), str(scene / "cube.raw")]
    out = ["--out", str(tmp_path / "run")]
    # missing cluster count
    assert main(["cluster", *cube, *out]) == 2
    # missing input file
    assert main(["cluster", str(scene / "nope.hdr"), cube[1], *out, "--k", "3"]) == 2
    # ground truth with the wrong pixel count
    short = tmp_path / "short.csv"
    write_labels_csv(str(short), LabelMap(np.array([1, 2])), grid_coords(1, 2))
    assert main(["cluster", *cube, *out, "--k", "3", "--gt", str(short)]) == 2


@pytest.mark.parametrize(
    "options",
    [
        "--kn=0",
        "--restarts=0",
        "--t=-1",
        "--t=nan",
        "--t=inf",
        "--tau=0",
        "--tau=inf",
        "--sigma0=inf",
        "--lsar=0",
        "--algorithm=kmeans --restarts=0",
        "--algorithm=sc --kn=0",
        "--p=0",
        "--eigenpairs=0",
        "--seed=-1",
        "--algorithm=kmeans --seed=-1",
    ],
)
def test_cluster_invalid_pipeline_option_is_configuration_error(tmp_path, capsys, options):
    scene = make_scene(tmp_path)
    out = tmp_path / "run"
    code = main(
        ["cluster", str(scene / "cube.hdr"), str(scene / "cube.raw"), "--out", str(out), "--k", "3", *options.split()]
    )
    assert code == 2
    assert "configuration failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algorithm", ["dsirc", "dvic", "kmeans", "sc"])
def test_sweep_negative_seed_is_configuration_error(tmp_path, capsys, algorithm):
    scene = make_scene(tmp_path)
    out = tmp_path / "run"
    cube = [str(scene / "cube.hdr"), str(scene / "cube.raw"), "--gt", str(scene / "gt.csv")]
    argv = ["sweep", *cube, "--out", str(out), "--k", "3", "--algorithm", algorithm, "--seed", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "dsirc: configuration failed: seed must be non-negative\n"
    assert not out.exists()


def test_config_file_supplies_defaults_but_flags_win(tmp_path):
    scene = make_scene(tmp_path)
    cfg = tmp_path / "opts.cfg"
    cfg.write_text(
        "# comment line\n"
        "algorithm = kmeans\n"
        "k = 3\n"
        "t = 5\n"
        "seed = 9\n"
    )
    out = tmp_path / "run"
    code = main(
        [
            "cluster",
            str(scene / "cube.hdr"),
            str(scene / "cube.raw"),
            "--out",
            str(out),
            "--config",
            str(cfg),
            "--t",
            "7",
        ]
    )
    assert code == 0
    params = (out / "params.txt").read_text()
    assert "algorithm = kmeans" in params
    assert "k = 3" in params
    assert "t = 7.0" in params  # flag beats config
    assert "seed = 9" in params


def test_config_file_rejects_unknown_keys(tmp_path):
    scene = make_scene(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery = 1\n")
    code = main(
        [
            "cluster",
            str(scene / "cube.hdr"),
            str(scene / "cube.raw"),
            "--out",
            str(tmp_path / "run"),
            "--config",
            str(cfg),
            "--k",
            "3",
        ]
    )
    assert code == 2
    cfg.write_text("no equals sign\n")
    assert (
        main(
            [
                "cluster",
                str(scene / "cube.hdr"),
                str(scene / "cube.raw"),
                "--out",
                str(tmp_path / "run2"),
                "--config",
                str(cfg),
                "--k",
                "3",
            ]
        )
        == 2
    )


# Every option set away from its default, and the params.txt it gives.
ALL_OPTIONS = {
    "algorithm": "dvic",
    "k": "3",
    "kn": "50",
    "sigma0": "0.3",
    "t": "20",
    "tau": "1.5",
    "lsar": "1,2,4",
    "restarts": "4",
    "seed": "7",
    "p": "3",
    "eigenpairs": "20",
    "normalize": "l2",
}
ALL_OPTIONS_PARAMS = """\
algorithm = dvic
eigenpairs = 20
k = 3
kn = 50
lsar = 1,2,4
normalize = l2
p = 3
restarts = 4
seed = 7
sigma0 = 0.3
t = 20.0
tau = 1.5
"""
DEFAULT_PARAMS = """\
algorithm = dsirc
eigenpairs = auto
k = 3
kn = 100
lsar = 1,2,3,5,7,9
normalize = none
p = auto
restarts = 10
seed = 0
sigma0 = auto
t = 30.0
tau = 2.0
"""


def cluster_with(tmp_path, scene, flags, config, out):
    """``main`` on a cluster run given ``flags`` and ``config`` key/value
    dicts, the latter written to a --config file."""
    argv = ["cluster", str(scene / "cube.hdr"), str(scene / "cube.raw"), "--out", str(out)]
    argv += [f"--{key}={value}" for key, value in flags.items()]
    if config:
        cfg = tmp_path / "options.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
        argv += ["--config", str(cfg)]
    return main(argv)


def test_default_params_text(tmp_path):
    scene = make_scene(tmp_path)
    out = tmp_path / "run"
    assert cluster_with(tmp_path, scene, {"k": "3"}, {}, out) == 0
    assert (out / "params.txt").read_text() == DEFAULT_PARAMS


@pytest.mark.parametrize("in_config", [(), *((key,) for key in ALL_OPTIONS), tuple(ALL_OPTIONS)])
def test_each_key_is_a_flag_and_a_config_key(tmp_path, in_config):
    # The keys in ``in_config`` come from the file, the rest from flags; the
    # rendered options are the same either way.
    scene = make_scene(tmp_path)
    out = tmp_path / "run"
    flags = {key: value for key, value in ALL_OPTIONS.items() if key not in in_config}
    config = {key: ALL_OPTIONS[key] for key in in_config}
    assert cluster_with(tmp_path, scene, flags, config, out) == 0
    assert (out / "params.txt").read_text() == ALL_OPTIONS_PARAMS


@pytest.mark.parametrize("flags", [{"k": "3"}, ALL_OPTIONS])
def test_params_txt_reads_back_as_a_config_file(tmp_path, flags):
    scene = make_scene(tmp_path)
    run, rerun = tmp_path / "run", tmp_path / "rerun"
    assert cluster_with(tmp_path, scene, flags, {}, run) == 0
    cube = [str(scene / "cube.hdr"), str(scene / "cube.raw")]
    assert main(["cluster", *cube, "--config", str(run / "params.txt"), "--out", str(rerun)]) == 0
    assert (rerun / "params.txt").read_text() == (run / "params.txt").read_text()
    assert (rerun / "labels.csv").read_bytes() == (run / "labels.csv").read_bytes()


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("k", "x"),
        ("kn", "1e3"),
        ("algorithm", "foo"),
        ("normalize", "l3"),
        ("lsar", "1,a"),
        ("sigma0", "abc"),
    ],
)
def test_bad_option_value_is_configuration_error_in_either_form(tmp_path, capsys, form, key, value):
    scene = make_scene(tmp_path)
    out = tmp_path / "run"
    given = {key: value} if key == "k" else {"k": "3", key: value}
    flags, config = (given, {}) if form == "flag" else ({}, given)
    assert cluster_with(tmp_path, scene, flags, config, out) == 2
    err = capsys.readouterr().err
    assert "configuration failed" in err
    assert f"bad {key} value" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["cluster", "sweep", "eval"])
def test_ground_truth_without_labelled_pixels_is_input_error(tmp_path, capsys, command):
    scene = make_scene(tmp_path)
    gt = tmp_path / "unlabelled.csv"
    write_labels_csv(str(gt), LabelMap(np.zeros(256, dtype=np.int64)), grid_coords(16, 16))
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--pred", str(scene / "gt.csv"), "--gt", str(gt), "--out", str(out)]
    else:
        cube = [str(scene / "cube.hdr"), str(scene / "cube.raw")]
        argv = [command, *cube, "--gt", str(gt), "--out", str(out), "--k", "3"]
    assert main(argv) == 2
    assert "input failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["cluster", "sweep", "eval"])
def test_ground_truth_on_another_grid_is_input_error(tmp_path, capsys, command):
    scene = make_scene(tmp_path)
    labels, _ = read_labels_csv(str(scene / "gt.csv"))
    gt = tmp_path / "wide.csv"
    # the scene's 256 labels, laid out on an 8 x 32 grid instead of 16 x 16
    write_labels_csv(str(gt), labels, grid_coords(8, 32))
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--pred", str(scene / "gt.csv"), "--gt", str(gt), "--out", str(out)]
    else:
        cube = [str(scene / "cube.hdr"), str(scene / "cube.raw")]
        argv = [command, *cube, "--gt", str(gt), "--out", str(out), "--k", "3"]
    assert main(argv) == 2
    assert "input failed" in capsys.readouterr().err
    assert not out.exists()


def test_cube_with_a_non_finite_value_is_input_error(tmp_path, capsys):
    scene = make_scene(tmp_path)
    raw = scene / "cube.raw"
    payload = np.fromfile(raw, dtype="<f4")
    payload[5] = np.nan
    payload.tofile(raw)
    out = tmp_path / "out"
    assert main(["cluster", str(scene / "cube.hdr"), str(raw), "--out", str(out), "--k", "3"]) == 2
    err = capsys.readouterr().err
    assert err == "dsirc: input failed: data file contains non-finite values\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# eval


def test_eval_scores_label_files(tmp_path, capsys):
    coords = grid_coords(4, 4)
    gt = np.tile([1, 2], 8)
    pred = np.tile([2, 1], 8)  # permuted labels: perfect after alignment
    write_labels_csv(str(tmp_path / "gt.csv"), LabelMap(gt), coords)
    write_labels_csv(str(tmp_path / "pred.csv"), LabelMap(pred), coords)
    out = tmp_path / "metrics.json"
    code = main(
        [
            "eval",
            "--pred",
            str(tmp_path / "pred.csv"),
            "--gt",
            str(tmp_path / "gt.csv"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["oa"] == 1.0 and printed["kappa"] == 1.0
    assert json.loads(out.read_text()) == printed


def test_eval_rejects_mismatched_lengths(tmp_path):
    write_labels_csv(str(tmp_path / "gt.csv"), LabelMap(np.array([1, 2])), grid_coords(1, 2))
    write_labels_csv(str(tmp_path / "pred.csv"), LabelMap(np.array([1])), grid_coords(1, 1))
    code = main(
        ["eval", "--pred", str(tmp_path / "pred.csv"), "--gt", str(tmp_path / "gt.csv")]
    )
    assert code == 2


def test_eval_missing_file(tmp_path):
    write_labels_csv(str(tmp_path / "gt.csv"), LabelMap(np.array([1])), grid_coords(1, 1))
    code = main(["eval", "--pred", str(tmp_path / "nope.csv"), "--gt", str(tmp_path / "gt.csv")])
    assert code == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_kmeans_single_row(tmp_path, capsys):
    scene = make_scene(tmp_path)
    capsys.readouterr()  # drop the synth line
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            str(scene / "cube.hdr"),
            str(scene / "cube.raw"),
            "--gt",
            str(scene / "gt.csv"),
            "--out",
            str(out),
            "--algorithm",
            "kmeans",
            "--k",
            "3",
            "--seeds",
            "2",
        ]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "kn,t,tau,oa_median,kappa_median"
    assert len(lines) == 2
    assert capsys.readouterr().out.startswith("best:")


def test_sweep_sc_grid_rows(tmp_path):
    scene = make_scene(tmp_path)
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            str(scene / "cube.hdr"),
            str(scene / "cube.raw"),
            "--gt",
            str(scene / "gt.csv"),
            "--out",
            str(out),
            "--algorithm",
            "sc",
            "--k",
            "3",
            "--kn-grid",
            "40,60",
        ]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("40,") and lines[2].startswith("60,")


@pytest.mark.parametrize(
    "algorithm, seeds, grids",
    [
        pytest.param("dsirc", 1, ("40,60", "10,30", "1,2"), id="dsirc"),
        pytest.param("dvic", 1, ("40,60", "10,30", "1,2"), id="dvic"),
        pytest.param("dsirc", 2, ("40,60", "30", "1,2"), id="dsirc-seeds2"),
        pytest.param("dvic", 2, ("40,60", "10,30", "1"), id="dvic-seeds2"),
        pytest.param("sc", 1, ("40,60,80", "10,30", "1,2"), id="sc"),
        pytest.param("sc", 2, ("40,60", "10,30", "1,2"), id="sc-seeds2"),
    ],
)
def test_sweep_rows_equal_single_cluster_runs(tmp_path, algorithm, seeds, grids):
    # Each row is the median, over seeds 0.., of the cluster runs with its
    # knobs, although the sweep shares stages between rows.  A column the
    # algorithm does not read (t for sc, tau for dvic and sc) is empty.
    scene = make_scene(tmp_path)
    cube = [str(scene / "cube.hdr"), str(scene / "cube.raw")]
    common = ["--gt", str(scene / "gt.csv"), "--algorithm", algorithm, "--k", "3"]
    out = tmp_path / "sweep"
    kn_grid, t_grid, tau_grid = grids
    flags = ["--kn-grid", kn_grid, "--t-grid", t_grid, "--tau-grid", tau_grid]
    assert main(["sweep", *cube, *common, "--out", str(out), *flags, "--seeds", str(seeds)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    keys = lines[0].split(",")
    rows = [dict(zip(keys, line.split(","))) for line in lines[1:]]
    columns = {
        "kn": kn_grid.split(","),
        "t": [f"{float(t)}" for t in t_grid.split(",")] if algorithm != "sc" else [""],
        "tau": [f"{float(tau)}" for tau in tau_grid.split(",")] if algorithm == "dsirc" else [""],
    }
    assert [(row["kn"], row["t"], row["tau"]) for row in rows] == list(
        itertools.product(*columns.values())
    )
    for i, row in enumerate(rows):
        knobs = [f"--{key}={row[key]}" for key in ("kn", "t", "tau") if row[key]]
        runs = []
        for seed in range(seeds):
            run = tmp_path / f"run{i}-{seed}"
            argv = ["cluster", *cube, *common, "--out", str(run), *knobs, "--seed", str(seed)]
            assert main(argv) == 0
            runs.append(json.loads((run / "metrics.json").read_text()))
        assert float(row["oa_median"]) == statistics.median(m["oa"] for m in runs)
        assert float(row["kappa_median"]) == statistics.median(m["kappa"] for m in runs)


@pytest.mark.parametrize(
    "algorithm, counts",
    [("dsirc", (1, 1, 2, 3, 4, 8)), ("dvic", (1, 1, 0, 1, 2, 4)), ("sc", (0, 0, 0, 1, 2, 0))],
)
def test_sweep_runs_each_stage_once_per_distinct_input(tmp_path, monkeypatch, algorithm, counts):
    # ``counts`` are one seed's calls, in ``stages`` order.  A second seed
    # repeats only the seeded stages: unmixing and each eigensystem's scans
    # (and sc's k-means, which is not counted here).
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    stages = ("unmix", "hysime", "sar", "knn_indices", "diffusion_system", "dt_values")
    for name in stages:
        count(unmixing if name == "hysime" else clustering, name)
    count(diffusion, "knn_indices")
    scene = make_scene(tmp_path)
    cube = [str(scene / "cube.hdr"), str(scene / "cube.raw"), "--gt", str(scene / "gt.csv")]
    grids = ["--kn-grid", "40,60", "--t-grid", "10,30", "--tau-grid", "1,2"]
    for seeds in (1, 2):
        calls.clear()
        out = ["--out", str(tmp_path / f"sweep{seeds}"), "--algorithm", algorithm, "--k", "3"]
        assert main(["sweep", *cube, *out, *grids, "--seeds", str(seeds)]) == 0
        per_seed = {"unmix": seeds, "dt_values": seeds}
        want = tuple(c * per_seed.get(name, 1) for name, c in zip(stages, counts))
        assert tuple(calls.get(name, 0) for name in stages) == want


def sweep_rows(out):
    lines = (out / "sweep.csv").read_text().splitlines()
    keys = lines[0].split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


def test_sweep_disconnected_graph_exits_one(tmp_path, capsys):
    # kn 3 disconnects this scene's graph, as in the cluster test above; the
    # sweep scores the other combination, names the failed one with its
    # cause, and exits 1.
    scene = make_scene(tmp_path, noise="0.005")
    capsys.readouterr()
    out = tmp_path / "s"
    code = main(
        [
            "sweep",
            str(scene / "cube.hdr"),
            str(scene / "cube.raw"),
            "--gt",
            str(scene / "gt.csv"),
            "--out",
            str(out),
            "--k",
            "3",
            "--kn-grid",
            "40,3",
            "--t-grid",
            "10",
            "--tau-grid",
            "1",
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("dsirc: clustering failed for kn=3 t=10.0 tau=1.0: KNN graph has ")
    assert [(row["kn"], row["t"], row["tau"]) for row in sweep_rows(out)] == [("40", "10.0", "1.0")]
    assert captured.out.startswith("best: kn=40 ")


def test_sweep_sc_skips_a_disconnected_combination(tmp_path, capsys):
    scene = make_scene(tmp_path, noise="0.005")
    out = tmp_path / "s"
    cube = [str(scene / "cube.hdr"), str(scene / "cube.raw"), "--gt", str(scene / "gt.csv")]
    argv = ["sweep", *cube, "--out", str(out), "--algorithm", "sc", "--k", "3", "--kn-grid", "3,40"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("dsirc: clustering failed for kn=3: KNN graph has ")
    assert [row["kn"] for row in sweep_rows(out)] == ["40"]


def test_sweep_default_grids_skip_the_disconnected_combination(tmp_path, capsys):
    # The README's scene (synth defaults): at kn 20, tau 3 the reconstructed
    # cloud's graph splits in two, so those three combinations fail and the
    # other 33 rows are written.  The rows that share a kn or a tau with the
    # failed graph (the kn 20 graphs at the other taus, and the other kn at
    # tau 3, which run after it in the same grid) equal those of sweeps in
    # which nothing fails.
    scene = tmp_path / "scene"
    assert main(["synth", "--out", str(scene)]) == 0
    capsys.readouterr()
    cube = [str(scene / "cube.hdr"), str(scene / "cube.raw"), "--gt", str(scene / "gt.csv")]
    assert main(["sweep", *cube, "--out", str(tmp_path / "all"), "--k", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"dsirc: clustering failed for kn=20 t={t} tau=3.0: KNN graph has 2 connected "
        "components; increase k_n to reconnect it"
        for t in ("10.0", "30.0", "100.0")
    ]
    assert captured.out.startswith("best: ")
    rows = sweep_rows(tmp_path / "all")
    keys = [(row["kn"], row["t"], row["tau"]) for row in rows]
    assert keys == [
        (kn, t, tau)
        for kn in ("20", "50", "100", "200")
        for t in ("10.0", "30.0", "100.0")
        for tau in ("1.0", "2.0", "3.0")
        if (kn, tau) != ("20", "3.0")
    ]
    clean = []
    for name, kn, tau in (("kn20", "20", "1,2"), ("tau3", "50,100,200", "3")):
        argv = ["sweep", *cube, "--out", str(tmp_path / name), "--k", "4"]
        assert main([*argv, "--kn-grid", kn, "--tau-grid", tau]) == 0
        clean += sweep_rows(tmp_path / name)
    assert len(clean) == 15
    for row in clean:
        assert row == rows[keys.index((row["kn"], row["t"], row["tau"]))]


def test_sweep_configuration_errors(tmp_path, capsys):
    scene = make_scene(tmp_path)
    common = [
        "sweep",
        str(scene / "cube.hdr"),
        str(scene / "cube.raw"),
        "--gt",
        str(scene / "gt.csv"),
        "--out",
        str(tmp_path / "s"),
        "--algorithm",
        "kmeans",
        "--k",
        "3",
    ]
    bad = [("--seeds", "0", "seeds"), ("--seeds", "x", "seeds"), ("--kn-grid", "", "kn")]
    for flag, value, key in bad:
        assert main(common + [flag, value]) == 2
        err = capsys.readouterr().err
        assert "configuration failed" in err and key in err


def test_sweep_checks_every_combination_before_running(tmp_path, capsys):
    scene = make_scene(tmp_path)
    out = tmp_path / "s"
    code = main(
        [
            "sweep",
            str(scene / "cube.hdr"),
            str(scene / "cube.raw"),
            "--gt",
            str(scene / "gt.csv"),
            "--out",
            str(out),
            "--k",
            "3",
            "--kn-grid",
            "40,0",
        ]
    )
    assert code == 2
    assert "configuration failed" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_infinite_t(tmp_path, capsys):
    scene = make_scene(tmp_path)
    out = tmp_path / "s"
    code = main(
        [
            "sweep",
            str(scene / "cube.hdr"),
            str(scene / "cube.raw"),
            "--gt",
            str(scene / "gt.csv"),
            "--out",
            str(out),
            "--k",
            "3",
            "--t-grid",
            "10,inf",
        ]
    )
    assert code == 2
    assert "configuration failed" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_infinite_tau(tmp_path, capsys):
    scene = make_scene(tmp_path)
    out = tmp_path / "s"
    cube = [str(scene / "cube.hdr"), str(scene / "cube.raw"), "--gt", str(scene / "gt.csv")]
    assert main(["sweep", *cube, "--out", str(out), "--k", "3", "--tau-grid", "1,inf"]) == 2
    assert capsys.readouterr().err == "dsirc: configuration failed: tau must be finite and positive\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["cluster", "sweep"])
@pytest.mark.parametrize(
    "flags, key",
    [
        ("--kn 200", "kn"),
        ("--k 500 --algorithm dsirc", "k"),
        ("--k 500 --algorithm dvic", "k"),
        ("--k 500 --algorithm kmeans", "k"),
        ("--k 500 --algorithm sc", "k"),
        ("--p 50", "p"),
        ("--eigenpairs 500", "eigenpairs"),
    ],
)
def test_value_the_cube_cannot_support_is_configuration_error(tmp_path, capsys, command, flags, key):
    scene = make_scene(tmp_path, height="12", width="12", bands="10")  # 144 pixels
    out = tmp_path / "out"
    cube = [str(scene / "cube.hdr"), str(scene / "cube.raw")]
    argv = [command, *cube, "--gt", str(scene / "gt.csv"), "--out", str(out), "--k", "3"]
    if command == "sweep":
        argv += ["--kn-grid", "20,300" if key == "kn" else "20"]
    assert main([*argv, *flags.split()]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"dsirc: configuration failed: bad {key} value ")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, key, field",
    [
        ("--k 145", "k", "n_clusters"),
        ("--kn 144", "kn", "k_n"),
        ("--p 11", "p", "n_endmembers"),
        ("--eigenpairs 145", "eigenpairs", "n_eigenpairs"),
    ],
)
def test_cli_and_mode_grid_give_one_reason_for_a_limit(tmp_path, capsys, monkeypatch, flags, key, field):
    # The CLI checks the cloud against the table mode_grid reads, so the
    # same value on the same 144-pixel, 10-band cube fails for the same
    # reason in both, before anything runs.
    def unmix(*args, **kwargs):
        raise AssertionError("unmixing ran before the knobs were checked")

    monkeypatch.setattr(clustering, "unmix", unmix)
    scene = make_scene(tmp_path, height="12", width="12", bands="10")
    capsys.readouterr()
    cube = [str(scene / "cube.hdr"), str(scene / "cube.raw")]
    assert main(["cluster", *cube, "--out", str(tmp_path / "out"), "--k", "3", *flags.split()]) == 2
    value = flags.split()[1]
    cli_prefix = f"dsirc: configuration failed: bad {key} value {value}: "
    err = capsys.readouterr().err.strip()
    assert err.startswith(cli_prefix)
    config = clustering.ClusterConfig(**{"n_clusters": 3, field: int(value)})
    cloud = cube_to_cloud(load_envi(*cube))
    with pytest.raises(ValueError) as raised:
        clustering.mode_grid(cloud, config, [config.k_n], [config.t], [config.tau])
    grid_prefix = f"bad {field} value {value}: "
    assert str(raised.value).startswith(grid_prefix)
    assert err[len(cli_prefix):] == str(raised.value)[len(grid_prefix):]


@pytest.mark.parametrize(
    "case, stage, code",
    [
        ("synth-generation", "generation", 1),
        ("cluster-out-is-file", "output", 2),
        ("sweep-out-is-file", "output", 2),
        ("eval-out-in-missing-dir", "output", 2),
        ("sweep-empty-gt", "input", 2),
    ],
)
def test_each_failure_stage_prints_one_line_and_its_exit_code(tmp_path, capsys, case, stage, code):
    if case == "synth-generation":
        argv = ["synth", "--out", str(tmp_path / "x"), "--bands", "2", "--endmembers", "9"]
    else:
        scene = make_scene(tmp_path)
        capsys.readouterr()
        cube = [str(scene / "cube.hdr"), str(scene / "cube.raw")]
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = {
            "cluster-out-is-file": ["cluster", *cube, "--out", str(taken), "--k", "3",
                                    "--algorithm", "kmeans"],
            "sweep-out-is-file": ["sweep", *cube, "--gt", str(scene / "gt.csv"), "--out",
                                  str(taken), "--k", "3", "--algorithm", "kmeans"],
            "eval-out-in-missing-dir": ["eval", "--pred", str(scene / "gt.csv"), "--gt",
                                        str(scene / "gt.csv"), "--out",
                                        str(tmp_path / "nodir" / "x.json")],
            "sweep-empty-gt": ["sweep", *cube, "--gt", "", "--out", str(tmp_path / "s"),
                               "--k", "3", "--algorithm", "kmeans"],
        }[case]
    assert main(argv) == code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"dsirc: {stage} failed: "), captured.err
    assert "Traceback" not in captured.err
    if case == "eval-out-in-missing-dir":
        # the metrics are printed before the write that fails
        assert json.loads(captured.out) == {"oa": 1.0, "kappa": 1.0}


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_l2_normalization_option(tmp_path):
    scene = make_scene(tmp_path)
    out = tmp_path / "run"
    code = main(
        [
            "cluster",
            str(scene / "cube.hdr"),
            str(scene / "cube.raw"),
            "--out",
            str(out),
            "--algorithm",
            "kmeans",
            "--k",
            "3",
            "--normalize",
            "l2",
        ]
    )
    assert code == 0
    assert "normalize = l2" in (out / "params.txt").read_text()
