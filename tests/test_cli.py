"""End-to-end CLI checks through ``main(argv)``: artifacts and exit codes."""

import json

import numpy as np
import pytest

from dsirc.cli import main
from dsirc.core import LabelMap, load_envi, read_labels_csv, write_labels_csv


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
    assert cube.data.shape == (12, 16, 16)
    gt, coords = read_labels_csv(str(out / "gt.csv"))
    assert gt.n == 256
    assert set(np.unique(gt.labels)) == {1, 2, 3}
    endmembers = np.loadtxt(out / "endmembers.csv", delimiter=",")
    assert endmembers.shape == (3, 12)
    assert "16x16x12" in capsys.readouterr().out


def test_synth_rejects_bad_config(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "x"), "--height", "0"]) == 2
    assert main(["synth", "--out", str(tmp_path / "y"), "--noise", "-1"]) == 2


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
        "--tau=0",
        "--lsar=0",
        "--algorithm=kmeans --restarts=0",
        "--algorithm=sc --kn=0",
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


def test_sweep_configuration_errors(tmp_path):
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
    assert main(common + ["--seeds", "0"]) == 2
    assert main(common + ["--kn-grid", ""]) == 2


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
