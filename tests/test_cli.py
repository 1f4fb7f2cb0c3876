"""Command-line surface: every command runs, outputs parse, and dumps are
bitwise identical across seed-fixed reruns."""
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from click.testing import CliRunner

from mattertrack import io as mio
from mattertrack import rng as rngmod
from mattertrack.cli import main
from mattertrack.evaluation import adjusted_rand_index, point_cluster_labels
from mattertrack.rng import substream
from mattertrack.tracker import subsample_indices


def run_cli(args):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def scene_spec_file(tmp_path):
    spec = {
        "bodies": [
            {"kind": "disk", "center": [0.35, 1.5], "size": 0.15, "num_dots": 60,
             "velocity": [0.15, 0.0]},
            {"kind": "rect", "center": [0.8, 0.45], "size": [1.0, 0.7],
             "num_dots": 60},
        ],
        "extent": [[0.0, 4.0], [0.0, 2.0]],
        "background_dots": 10,
        "flicker_prob": 0.05,
        "frames": 5,
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(spec))
    return path


def config_file(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({
        "hyper": {"sigma2_V": 0.001, "s2": 0.01},
        "track": {"init_sweeps": 8},
        "candidates": {"M_r": 9, "M_t": 25},
    }))
    return path


def test_simulate_writes_observations_labels_and_state(tmp_path):
    out = tmp_path / "obs.jsonl"
    labels = tmp_path / "gt.jsonl"
    state = tmp_path / "state.jsonl"
    run_cli(["simulate", "--dim", "2", "-K", "2", "-L", "6", "-N", "40",
             "--seed", "3", "--out", str(out), "--labels-out", str(labels),
             "--state-out", str(state)])
    frames = mio.read_observations(out)
    assert len(frames) == 1 and len(frames[0]) == 40
    assert len(mio.read_labels(labels)[0]) == 40
    assert mio.read_states(state)[0].state.L == 6


def test_rdk_gen_and_sva(tmp_path):
    spec = scene_spec_file(tmp_path)
    obs = tmp_path / "rdk.jsonl"
    gt = tmp_path / "rdk_gt.jsonl"
    run_cli(["rdk-gen", "--spec", str(spec), "--seed", "1",
             "--out", str(obs), "--labels-out", str(gt)])
    frames = mio.read_observations(obs)
    assert len(frames) == 5

    sva_out = tmp_path / "sva.json"
    run_cli(["sva", "--obs", str(obs), "-K", "2", "-L", "8", "--seed", "0",
             "--out", str(sva_out)])
    res = json.loads(sva_out.read_text())
    losses = res["losses"]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_fit_track_eval_pipeline(tmp_path):
    spec = scene_spec_file(tmp_path)
    obs = tmp_path / "rdk.jsonl"
    gt = tmp_path / "rdk_gt.jsonl"
    run_cli(["rdk-gen", "--spec", str(spec), "--seed", "2",
             "--out", str(obs), "--labels-out", str(gt)])
    conf = config_file(tmp_path)

    fit_out = tmp_path / "fit.jsonl"
    svg = tmp_path / "fit.svg"
    run_cli(["fit", "--obs", str(obs), "-K", "2", "-L", "8", "--sweeps", "10",
             "--seed", "0", "--config", str(conf), "--out", str(fit_out),
             "--plot", str(svg)])
    assert mio.read_states(fit_out)[0].state.K == 2
    tree = ET.parse(svg)  # SVG must be well-formed XML
    assert tree.getroot().tag.endswith("svg")
    assert len([e for e in tree.getroot() if e.tag.endswith("ellipse")]) == 8

    track_out = tmp_path / "track.jsonl"
    run_cli(["track", "--obs", str(obs), "-K", "2", "-L", "8", "--seed", "0",
             "--config", str(conf), "--out", str(track_out)])
    records = mio.read_states(track_out)
    assert [r.t for r in records] == [0, 1, 2, 3, 4]

    report = tmp_path / "report.json"
    result = run_cli(["eval", "--states", str(track_out), "--obs", str(obs),
                      "--gt", str(gt), "--grid", "24", "--probes", "40",
                      "--out", str(report)])
    rep = json.loads(report.read_text())
    assert len(rep["frames"]) == 5
    assert 0.0 <= rep["mean_matter_weighted_jaccard"] <= 1.0
    assert "probe_jaccard" in rep["frames"][0]


def test_eval_subsample_pairs_labels_with_tracked_points(tmp_path):
    spec = scene_spec_file(tmp_path)
    obs = tmp_path / "rdk.jsonl"
    gt = tmp_path / "rdk_gt.jsonl"
    run_cli(["rdk-gen", "--spec", str(spec), "--seed", "3",
             "--out", str(obs), "--labels-out", str(gt)])
    track_out = tmp_path / "track.jsonl"
    run_cli(["track", "--obs", str(obs), "-K", "2", "-L", "8", "--seed", "6",
             "--subsample", "0.5", "--config", str(config_file(tmp_path)),
             "--out", str(track_out)])
    report = tmp_path / "report.json"
    run_cli(["eval", "--states", str(track_out), "--obs", str(obs), "--gt", str(gt),
             "--subsample", "0.5", "--seed", "6", "--out", str(report)])
    rep = json.loads(report.read_text())

    frames, labels = mio.read_observations(obs), mio.read_labels(gt)
    for rec, frame_rep in zip(mio.read_states(track_out), rep["frames"]):
        t = rec.t
        keep = subsample_indices(len(frames[t]), 0.5, substream(6, rngmod.SUBSAMPLE, t))
        assert len(keep) == rec.state.N < len(frames[t])
        want = adjusted_rand_index(point_cluster_labels(rec.state), labels[t][keep])
        assert frame_rep["ari"] == want


@pytest.mark.parametrize("command,rate", [("fit", "-3"), ("sva", "1.5"), ("eval", "0"),
                                          ("track", "0")])
def test_subsample_out_of_range_is_a_usage_error(tmp_path, command, rate):
    obs = tmp_path / "obs.jsonl"
    run_cli(["simulate", "-N", "60", "-L", "4", "--seed", "1", "--out", str(obs),
             "--labels-out", str(tmp_path / "labels.jsonl"), "--state-out",
             str(tmp_path / "state.jsonl")])
    args = {"fit": ["-K", "2", "-L", "4", "--out", str(tmp_path / "o")],
            "sva": ["-K", "2", "-L", "4", "--out", str(tmp_path / "o")],
            "track": ["-K", "2", "-L", "4", "--out", str(tmp_path / "o")],
            "eval": ["--states", str(tmp_path / "state.jsonl"),
                     "--gt", str(tmp_path / "labels.jsonl")]}[command]
    result = CliRunner().invoke(main, [command, "--obs", str(obs), "--subsample", rate, *args])
    assert result.exit_code == 2, result.output
    assert "--subsample" in result.output
    assert not (tmp_path / "o").exists()


COUNT_CASES = [
    ("geweke", "--iters", "50"), ("geweke", "--sweeps-per-iter", "0"),
    ("geweke", "-K", "0"), ("geweke", "-L", "0"), ("geweke", "-N", "0"),
    ("simulate", "-N", "0"),
    ("fit", "-K", "0"), ("fit", "-L", "-1"), ("fit", "--sweeps", "-5"),
    ("track", "-K", "0"), ("track", "-L", "0"),
    ("sva", "-K", "-2"), ("sva", "-L", "0"), ("sva", "--max-iter", "-1"),
]


@pytest.mark.parametrize("command,option,value", COUNT_CASES)
def test_count_out_of_range_is_a_usage_error(tmp_path, command, option, value):
    obs, out = tmp_path / "obs.jsonl", tmp_path / "o"
    run_cli(["simulate", "-N", "40", "-L", "4", "--seed", "1", "--out", str(obs)])
    if command in ("geweke", "simulate"):
        args = [option, value]
    else:
        counts = {"-K": "2", "-L": "4", option: value}
        args = ["--obs", str(obs), *(a for pair in counts.items() for a in pair)]
    result = CliRunner().invoke(main, [command, *args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert option in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "track", "sva", "simulate", "geweke"])
def test_fewer_particles_than_clusters_is_a_usage_error(tmp_path, command):
    obs, out = tmp_path / "obs.jsonl", tmp_path / "o"
    run_cli(["simulate", "-N", "40", "-L", "4", "--seed", "1", "--out", str(obs)])
    args = [] if command in ("geweke", "simulate") else ["--obs", str(obs)]
    result = CliRunner().invoke(main, [command, *args, "-K", "3", "-L", "2", "--out", str(out)],
                                catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert "-K/--clusters" in result.output and "-L/--particles" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "track", "sva"])
def test_fewer_points_than_particles_is_a_one_line_error(tmp_path, command):
    obs, out = tmp_path / "obs.jsonl", tmp_path / "o"
    run_cli(["simulate", "-N", "40", "-L", "4", "--seed", "1", "--out", str(obs)])
    result = CliRunner().invoke(main, [command, "--obs", str(obs), "-K", "2", "-L", "60",
                                       "--out", str(out)], catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == [
        "Error: frame 0 holds 40 points, fewer than -L/--particles (60)"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "track", "sva"])
def test_empty_observation_file_is_a_one_line_error(tmp_path, command):
    obs, out = tmp_path / "obs.jsonl", tmp_path / "o"
    obs.write_text("")
    result = CliRunner().invoke(main, [command, "--obs", str(obs), "-K", "2", "-L", "4",
                                       "--out", str(out)], catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == ["Error: observation file holds no frames"]
    assert not out.exists()


def test_eval_on_empty_state_dump_is_a_one_line_error(tmp_path):
    obs, labels, states = tmp_path / "obs.jsonl", tmp_path / "gt.jsonl", tmp_path / "s.jsonl"
    run_cli(["simulate", "-N", "40", "-L", "4", "--seed", "1", "--out", str(obs),
             "--labels-out", str(labels)])
    states.write_text("")
    result = CliRunner().invoke(main, ["eval", "--states", str(states), "--obs", str(obs),
                                       "--gt", str(labels), "--out", str(tmp_path / "o")],
                                catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == ["Error: state dump holds no states"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command",
                         ["simulate", "rdk-gen", "fit", "track", "sva", "eval", "geweke"])
def test_threads_option_is_gone(command):
    result = CliRunner().invoke(main, [command, "--threads", "1"])
    assert result.exit_code == 2, result.output
    assert "No such option" in result.output and "--threads" in result.output


def test_zero_sweeps_and_iterations_are_accepted(tmp_path):
    obs = tmp_path / "obs.jsonl"
    run_cli(["simulate", "-N", "40", "-L", "4", "--seed", "1", "--out", str(obs)])
    run_cli(["fit", "--obs", str(obs), "-K", "2", "-L", "4", "--sweeps", "0",
             "--out", str(tmp_path / "fit.jsonl")])
    assert mio.read_states(tmp_path / "fit.jsonl")[0].state.rng.counter == 0
    result = run_cli(["sva", "--obs", str(obs), "-K", "2", "-L", "4", "--max-iter", "0",
                      "--out", str(tmp_path / "sva.json")])
    assert "no iterations" in result.output
    assert json.loads((tmp_path / "sva.json").read_text())["iterations"] == 0


def test_geweke_command_smoke(tmp_path):
    out = tmp_path / "geweke.json"
    result = run_cli(["geweke", "--dim", "2", "-K", "1", "-L", "2", "-N", "8",
                      "--iters", "300", "--seed", "0", "--threshold", "8",
                      "--out", str(out)])
    assert "max |z|" in result.output
    rep = json.loads(out.read_text())
    assert rep["iterations"] == 300


def test_track_resume_cli_matches_full(tmp_path):
    spec = scene_spec_file(tmp_path)
    obs = tmp_path / "rdk.jsonl"
    run_cli(["rdk-gen", "--spec", str(spec), "--seed", "4", "--out", str(obs)])
    conf = config_file(tmp_path)

    full_out = tmp_path / "full.jsonl"
    run_cli(["track", "--obs", str(obs), "-K", "2", "-L", "6", "--seed", "5",
             "--config", str(conf), "--out", str(full_out)])
    full = mio.read_states(full_out)

    head = tmp_path / "head.jsonl"
    mio.write_states(head, [r.state for r in full[:3]], hyper=full[0].hyper)
    resumed_out = tmp_path / "resumed.jsonl"
    run_cli(["track", "--obs", str(obs), "-K", "2", "-L", "6", "--seed", "5",
             "--config", str(conf), "--resume-from", str(head),
             "--out", str(resumed_out)])
    resumed = mio.read_states(resumed_out)
    assert [r.t for r in resumed] == [3, 4]
    for a, b in zip(resumed, full[3:]):
        np.testing.assert_array_equal(a.state.mu_B, b.state.mu_B)
        np.testing.assert_array_equal(a.state.z_B, b.state.z_B)


def test_track_determinism_across_runs(tmp_path):
    spec = scene_spec_file(tmp_path)
    obs = tmp_path / "rdk.jsonl"
    run_cli(["rdk-gen", "--spec", str(spec), "--seed", "7", "--out", str(obs)])
    conf = config_file(tmp_path)

    dumps = []
    for tag in ("a", "b"):
        out = tmp_path / f"track_{tag}.jsonl"
        run_cli(["track", "--obs", str(obs), "-K", "2", "-L", "8", "--seed", "11",
                 "--config", str(conf), "--out", str(out)])
        dumps.append(out.read_bytes())
    assert dumps[0] == dumps[1], "same seed must give bitwise equal dumps"


def test_simulate_determinism_bitwise(tmp_path):
    outs = []
    for tag in ("x", "y"):
        out = tmp_path / f"sim_{tag}.jsonl"
        run_cli(["simulate", "-K", "2", "-L", "5", "-N", "30", "--seed", "42",
                 "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
