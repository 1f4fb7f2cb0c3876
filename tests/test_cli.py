"""Command-line surface: every command runs, outputs parse, and dumps are
bitwise identical across seed-fixed reruns."""
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from click.testing import CliRunner

from mattertrack import io as mio
from mattertrack.cli import main
from mattertrack.evaluation import adjusted_rand_index, point_cluster_labels
from mattertrack.tracker import subsample_indices
from mattertrack.types import Observations


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
        keep = subsample_indices(len(frames[t]), 0.5, 6, t)
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


EYE3 = json.dumps(np.eye(3).tolist())


@pytest.mark.parametrize("text,message", [
    ('{"track": {"per_frame_schedule": {"steps": [["assign_points", 0]]}}}',
     "schedule repeat counts must be integers >= 1, got ['assign_points', 0]"),
    ('{"track": ', "Expecting value: line 1 column 11 (char 10)"),
    ('{"track": {"freeze_z_H": "no"}}', "track freeze_z_H must be true or false, got 'no'"),
    ('{"hyper": {"s2": "x"}}', "s2 must be a positive number, got 'x'"),
    ('{"hyper": {"Psi_B": "x"}}', "Psi_B must be an array of numbers"),
    ('{"hyper": {"nu_B": "x"}}', "nu_B must be a finite number, got 'x'"),
    ('{"hyper": {"p_outlier": "x"}}', "p_outlier must be a number in [0, 1), got 'x'"),
    ('{"hyper": {"sigma2_F": "x"}}', "sigma2_F must be a positive number, got 'x'"),
    ('{"hyper": {"kappa_vmf": null}}', "kappa_vmf must be a non-negative number, got None"),
    ('{"hyper": {"nu_B": NaN}}', "nu_B must be a finite number, got nan"),
    ('{"hyper": {"kappa_vmf": NaN}}', "kappa_vmf must be a non-negative number, got nan"),
    ('{"hyper": {"sigma2_mu_H": Infinity}}', "sigma2_mu_H must be a positive number, got inf"),
    ('{"hyper": {"alpha": [1, 0]}}',
     "alpha must be a positive number or a vector of them, got [1.0, 0.0]"),
    (f'{{"hyper": {{"mu_H_prior": [0, 0, 0], "Psi_H": {EYE3}, "Psi_B": {EYE3}, '
     f'"Psi_V": {EYE3}}}}}', "mu_H_prior must have shape (2,), got (3,)"),
    ('{"hyper": []}', "config section hyper must be a JSON object, got []"),
    ('{"candidates": {"M_r": "x"}}', "M_r must be an integer >= 1, got 'x'"),
    ('{"candidates": {"M_r": 0}}', "M_r must be an integer >= 1, got 0"),
    ('{"candidates": {"M_r": true}}', "M_r must be an integer >= 1, got True"),
    ('{"candidates": {"M_t": 2.5}}', "M_t must be an integer >= 1, got 2.5"),
], ids=["zero-repeat", "malformed-json", "string-freeze-flag", "s2-str", "Psi_B-str",
        "nu_B-str", "p_outlier-str", "sigma2_F-str", "kappa-null", "nu_B-nan", "kappa-nan",
        "sigma2_mu_H-inf", "alpha-zero", "3d-hyper", "hyper-list", "M_r-str", "M_r-0",
        "M_r-bool", "M_t-2.5"])
def test_bad_config_file_is_a_one_line_error(tmp_path, text, message):
    obs, conf, out = tmp_path / "obs.jsonl", tmp_path / "conf.json", tmp_path / "o"
    run_cli(["simulate", "-N", "40", "-L", "4", "--seed", "1", "--out", str(obs)])
    conf.write_text(text)
    result = CliRunner().invoke(main, ["track", "--obs", str(obs), "-K", "2", "-L", "4",
                                       "--config", str(conf), "--out", str(out)],
                                catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == [f"Error: config file {conf}: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "fit", "track", "geweke"])
def test_concentration_vector_of_the_wrong_length_is_a_one_line_error(tmp_path, command):
    # checked before any draw, not in the first sweep
    obs, conf, out = tmp_path / "obs.jsonl", tmp_path / "conf.json", tmp_path / "o"
    run_cli(["simulate", "-N", "40", "-L", "4", "--seed", "1", "--out", str(obs)])
    conf.write_text(json.dumps({"hyper": {"alpha": [1, 2]}}))
    data = [] if command in ("simulate", "geweke") else ["--obs", str(obs)]
    result = CliRunner().invoke(main, [command, *data, "-K", "3", "-L", "4",
                                       "--config", str(conf), "--out", str(out)],
                                catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == ["Error: alpha must have length 3, got (2,)"]
    assert not out.exists()


@pytest.mark.parametrize("command,files,message", [
    ("track", {"obs": '{"t": 0, "points": [5]}'},
     "line 1: point 0 must be an object with 'x' and 'v'"),
    ("fit", {"obs": '{"t": 0, "points": {"x": [0, 0]}}'},
     "line 1: frame record needs 't' and a 'points' list"),
    ("sva", {"obs": '{"t": 0, "points": [{"x": ["a", 0], "v": [0, 0]}]}'},
     "frame 0: positions must be an array of numbers"),
    ("track", {"obs": '{"t": 0, "points": [{"x": [0, 0], "v": [0, null]}]}'},
     "frame 0: velocities must be finite"),
    ("fit", {"obs": '{"t": 0, "points": [{"x": [0, 0], "v": [0, 0]}, {"x": [1], "v": [0, 0]}]}'},
     "frame 0: positions must be an array of numbers"),
    ("track", {"resume": '{"format_version": 1, "t": 0, "hyper": null}'},
     "line 1: state record needs 't' and 'state'"),
    ("track", {"resume": '{"format_version": 1, "t": 0, "state": {"particles": []}}'},
     "line 1: state record lacks 'dim'"),
    ("eval", {"states": '[1, 2]'}, "line 1: state record needs 't' and 'state'"),
    ("eval", {"gt": '7'}, "line 1: label record needs 'labels'"),
    ("rdk-gen", {"spec": '{"bodies": [{"kind": "disk", "center": [0, 0], "size": 0.1}]}'},
     "scene spec {spec}: body 0 needs keys ['num_dots']"),
    ("rdk-gen", {"spec": '{"bodies": ['},
     "scene spec {spec}: Expecting value: line 2 column 1 (char 13)"),
], ids=["point-not-object", "points-not-list", "str-coordinate", "null-velocity",
        "ragged-points", "state-missing", "state-without-dim", "state-not-object",
        "labels-not-object", "body-without-num_dots", "spec-malformed-json"])
def test_malformed_input_file_is_a_one_line_error(tmp_path, command, files, message):
    obs, gt, states, out = (tmp_path / n for n in ("obs.jsonl", "gt.jsonl", "s.jsonl", "o"))
    run_cli(["simulate", "-N", "40", "-L", "4", "--seed", "1", "--out", str(obs),
             "--labels-out", str(gt), "--state-out", str(states)])
    paths = {"obs": obs, "gt": gt, "states": states, "resume": tmp_path / "resume.jsonl",
             "spec": tmp_path / "scene.json"}
    for name, text in files.items():
        paths[name].write_text(text + "\n")
    args = {"track": ["--obs", str(obs), "-K", "2", "-L", "4"]
            + (["--resume-from", str(paths["resume"])] if "resume" in files else []),
            "fit": ["--obs", str(obs), "-K", "2", "-L", "4"],
            "sva": ["--obs", str(obs), "-K", "2", "-L", "4"],
            "eval": ["--states", str(states), "--obs", str(obs), "--gt", str(gt)],
            "rdk-gen": ["--spec", str(paths["spec"])]}[command]
    result = CliRunner().invoke(main, [command, *args, "--out", str(out)],
                                catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == [
        "Error: " + message.format(spec=paths["spec"])]
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "track", "geweke"])
def test_config_hyperparameter_of_the_wrong_dimension_is_a_one_line_error(tmp_path, command):
    obs, conf, out = tmp_path / "obs.jsonl", tmp_path / "conf.json", tmp_path / "o"
    run_cli(["simulate", "-N", "40", "-L", "4", "--seed", "1", "--out", str(obs)])
    conf.write_text(json.dumps({"hyper": {"Psi_B": np.eye(3).tolist()}}))
    data = ["--dim", "2"] if command == "geweke" else ["--obs", str(obs)]
    result = CliRunner().invoke(main, [command, *data, "-K", "2", "-L", "4",
                                       "--config", str(conf), "--out", str(out)],
                                catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == [
        f"Error: config file {conf}: Psi_B must have shape (2, 2)"]
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


def test_geweke_command_fails_on_a_nan_z(monkeypatch):
    # a NaN z after the first statistic used to pass the check and exit 0
    import mattertrack.cli as cli
    from mattertrack.geweke import GewekeReport, GewekeStat

    report = GewekeReport((GewekeStat("mu_B[0][0]", 0.0, 0.0, 1.0),
                           GewekeStat("v[0][0]", 0.0, float("nan"), float("nan"))), 100)
    monkeypatch.setattr(cli, "run_geweke", lambda *args, **kwargs: report)
    result = CliRunner().invoke(main, ["geweke", "--iters", "100", "--threshold", "8"])
    assert result.exit_code == 1
    assert "non-finite z: v[0][0]" in result.output
    assert "FAIL: non-finite z for v[0][0]" in result.output


def test_geweke_out_is_strict_json_with_a_non_finite_z(tmp_path, monkeypatch):
    # a bare NaN or Infinity is not JSON; the file writes null in their place
    import mattertrack.cli as cli
    from mattertrack.geweke import GewekeReport, GewekeStat

    report = GewekeReport((GewekeStat("mu_B[0][0]", 0.0, 0.5, 1.0),
                           GewekeStat("v[0][0]", 0.0, float("nan"), float("nan")),
                           GewekeStat("v[0][1]", 0.0, float("inf"), float("-inf"))), 100)
    monkeypatch.setattr(cli, "run_geweke", lambda *args, **kwargs: report)
    out = tmp_path / "geweke.json"
    result = CliRunner().invoke(main, ["geweke", "--iters", "100", "--out", str(out)])
    assert result.exit_code == 1

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rep = json.loads(out.read_text(), parse_constant=refuse)
    assert rep["max_abs_z"] is None
    assert [s["z"] for s in rep["stats"]] == [1.0, None, None]
    assert [s["chain_mean"] for s in rep["stats"]] == [0.5, None, None]


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


def tracked_scene(tmp_path):
    """A 5-frame RDK file, its labels, the test config, and a K=2, L=8 track dump."""
    obs, gt = tmp_path / "rdk.jsonl", tmp_path / "rdk_gt.jsonl"
    run_cli(["rdk-gen", "--spec", str(scene_spec_file(tmp_path)), "--seed", "4",
             "--out", str(obs), "--labels-out", str(gt)])
    conf, full = config_file(tmp_path), tmp_path / "full.jsonl"
    run_cli(["track", "--obs", str(obs), "-K", "2", "-L", "8", "--seed", "5",
             "--config", str(conf), "--out", str(full)])
    return obs, gt, conf, full


@pytest.mark.parametrize("plot", [False, True], ids=["no-plot", "plot"])
def test_resume_past_the_files_end_is_a_one_line_error(tmp_path, plot):
    obs, _, conf, full = tracked_scene(tmp_path)
    out, svg = tmp_path / "o", tmp_path / "last.svg"
    result = CliRunner().invoke(main, [
        "track", "--obs", str(obs), "-K", "2", "-L", "8", "--seed", "5",
        "--config", str(conf), "--resume-from", str(full), "--out", str(out),
        *(["--plot", str(svg)] if plot else [])], catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == [
        "Error: resume dump ends at frame 4, but the observation file holds 5 frames: "
        "none is left to track"]
    assert not out.exists() and not svg.exists()


@pytest.mark.parametrize("flags,message", [
    (["-K", "3", "-L", "8", "--seed", "5"], "-K/--clusters 3 (dump: 2)"),
    (["-K", "2", "-L", "40", "--seed", "5"], "-L/--particles 40 (dump: 8)"),
    (["-K", "2", "-L", "8", "--seed", "9"], "--seed 9 (dump: 5)"),
    (["-K", "5", "-L", "40"], "-K/--clusters 5 (dump: 2), -L/--particles 40 (dump: 8), "
                              "--seed 0 (dump: 5)"),
], ids=["K", "L", "seed", "all"])
def test_resume_flags_that_contradict_the_dump_are_a_one_line_error(tmp_path, flags, message):
    obs, _, conf, full = tracked_scene(tmp_path)
    head, out = tmp_path / "head.jsonl", tmp_path / "o"
    records = mio.read_states(full)
    mio.write_states(head, [r.state for r in records[:3]], hyper=records[0].hyper)
    result = CliRunner().invoke(main, [
        "track", "--obs", str(obs), *flags, "--config", str(conf),
        "--resume-from", str(head), "--out", str(out)], catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == [f"Error: resume flags differ from the dump: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("dumped,resumed", [(0.5, 1.0), (1.0, 0.5)], ids=["half-to-all",
                                                                        "all-to-half"])
def test_resume_with_another_subsample_rate_is_a_one_line_error(tmp_path, dumped, resumed):
    # the rate is in no record; the dumped point count of the last frame shows it
    obs, head, out = tmp_path / "rdk.jsonl", tmp_path / "head.jsonl", tmp_path / "o"
    run_cli(["rdk-gen", "--spec", str(scene_spec_file(tmp_path)), "--seed", "4",
             "--out", str(obs)])
    args = ["track", "--obs", str(obs), "-K", "2", "-L", "8", "--seed", "5",
            "--config", str(config_file(tmp_path))]
    run_cli([*args, "--subsample", str(dumped), "--out", str(head)])
    records = mio.read_states(head)
    mio.write_states(head, [r.state for r in records[:3]], hyper=records[0].hyper)
    n = len(mio.read_observations(obs)[2])
    kept = {1.0: n, 0.5: math.ceil(n / 2)}
    result = CliRunner().invoke(main, [
        *args, *([] if resumed == 1.0 else ["--subsample", str(resumed)]),
        "--resume-from", str(head), "--out", str(out)], catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == [
        f"Error: resume dump holds {kept[dumped]} points of frame 2, but --subsample "
        f"{resumed} keeps {kept[resumed]}"]
    assert not out.exists()


@pytest.mark.parametrize("dump,message", [("empty", "resume dump holds no states"),
                                          ("no-hyper", "resume dump lacks hyperparameters")])
def test_unusable_resume_dump_is_a_one_line_error(tmp_path, dump, message):
    obs, _, conf, full = tracked_scene(tmp_path)
    head, out = tmp_path / "head.jsonl", tmp_path / "o"
    if dump == "empty":
        head.write_text("")
    else:
        mio.write_states(head, [r.state for r in mio.read_states(full)[:2]])
    result = CliRunner().invoke(main, [
        "track", "--obs", str(obs), "-K", "2", "-L", "8", "--seed", "5",
        "--config", str(conf), "--resume-from", str(head), "--out", str(out)],
        catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == [f"Error: {message}"]
    assert not out.exists()


def svg_counts(path):
    root = ET.parse(path).getroot()
    tags = [e.tag.rsplit("}", 1)[-1] for e in root.iter()]
    return tags.count("circle"), tags.count("ellipse")


def test_track_plot_draws_the_tracked_points_of_each_frame(tmp_path):
    obs, _, conf, _ = tracked_scene(tmp_path)
    out = tmp_path / "sub.jsonl"
    run_cli(["track", "--obs", str(obs), "-K", "2", "-L", "8", "--seed", "6",
             "--subsample", "0.5", "--config", str(conf), "--out", str(out),
             "--plot", str(tmp_path / "frame{t}.svg")])
    records = mio.read_states(out)
    for rec in records:
        assert svg_counts(tmp_path / f"frame{rec.t}.svg") == (rec.state.N, 8)
    # without a placeholder only the final frame is drawn, to the path as given
    last = tmp_path / "last.svg"
    run_cli(["track", "--obs", str(obs), "-K", "2", "-L", "8", "--seed", "6",
             "--subsample", "0.5", "--config", str(conf), "--out", str(out),
             "--plot", str(last)])
    assert last.read_bytes() == (tmp_path / "frame4.svg").read_bytes()
    assert len(list(tmp_path.glob("*.svg"))) == 6


def test_track_steps_over_an_empty_later_frame(tmp_path):
    obs, out = tmp_path / "rdk.jsonl", tmp_path / "t.jsonl"
    run_cli(["rdk-gen", "--spec", str(scene_spec_file(tmp_path)), "--seed", "4",
             "--out", str(obs)])
    blank_frame(obs, 2, "points")
    run_cli(["track", "--obs", str(obs), "-K", "2", "-L", "8", "--seed", "5",
             "--config", str(config_file(tmp_path)), "--out", str(out),
             "--plot", str(tmp_path / "f_{t}.svg")])
    records = mio.read_states(out)
    assert [len(r.state.z_B) for r in records][2] == 0 and len(records) == 5
    assert svg_counts(tmp_path / "f_2.svg") == (0, 8)


def test_fit_flow_split_is_tracks_frame_zero(tmp_path):
    obs, _, _, _ = tracked_scene(tmp_path)
    conf = tmp_path / "fit_conf.json"
    conf.write_text(json.dumps({
        "hyper": {"sigma2_V": 0.001, "s2": 0.01},
        "track": {"init_sweeps": 6, "freeze_Sigma_B": False, "subsample_rate": 0.5},
        "candidates": {"M_r": 9, "M_t": 25},
    }))
    common = ["--obs", str(obs), "-K", "2", "-L", "8", "--seed", "3", "--flow-split",
              "--config", str(conf)]
    run_cli(["fit", *common, "--sweeps", "6", "--subsample", "0.5",
             "--out", str(tmp_path / "fit.jsonl")])
    run_cli(["track", *common, "--out", str(tmp_path / "track.jsonl")])
    fit_line = (tmp_path / "fit.jsonl").read_text().splitlines()
    track_lines = (tmp_path / "track.jsonl").read_text().splitlines()
    assert len(fit_line) == 1 and fit_line[0] == track_lines[0]


def test_eval_on_states_that_do_not_match_the_file_is_a_one_line_error(tmp_path):
    obs, gt, _, full = tracked_scene(tmp_path)
    late = tmp_path / "late.jsonl"
    mio.write_states(late, [mio.read_states(full)[0].state], first_t=7)
    cases = [(["--states", str(late)], "state for frame 7 has no matching obs/labels"),
             (["--states", str(full), "--subsample", "0.5"],
              "frame 0: point counts differ between state and labels")]
    for args, message in cases:
        result = CliRunner().invoke(main, ["eval", "--obs", str(obs), "--gt", str(gt), *args,
                                           "--out", str(tmp_path / "o")],
                                    catch_exceptions=False)
        assert result.exit_code == 1, result.output
        assert result.output.splitlines() == [f"Error: {message}"]
        assert not (tmp_path / "o").exists()


def test_track_initializes_frame_zero_once(tmp_path, monkeypatch):
    from mattertrack import initialization

    spec, obs = scene_spec_file(tmp_path), tmp_path / "rdk.jsonl"
    run_cli(["rdk-gen", "--spec", str(spec), "--seed", "4", "--out", str(obs)])
    calls = []
    kmeans_pp = initialization.kmeans_pp

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return kmeans_pp(*args, **kwargs)

    monkeypatch.setattr(initialization, "kmeans_pp", counted)
    run_cli(["track", "--obs", str(obs), "-K", "2", "-L", "8", "--seed", "5",
             "--config", str(config_file(tmp_path)), "--out", str(tmp_path / "o.jsonl")])
    # one init_state: frame 0's points into particles, then particles into clusters
    assert calls == [len(mio.read_observations(obs)[0]), 8]


def blank_frame(path, t, key):
    lines = path.read_text().splitlines()
    lines[t] = json.dumps({**json.loads(lines[t]), key: []})
    path.write_text("\n".join(lines) + "\n")


def test_eval_reports_an_empty_frame_by_its_point_count(tmp_path):
    obs, gt, out = tmp_path / "rdk.jsonl", tmp_path / "rdk_gt.jsonl", tmp_path / "t.jsonl"
    run_cli(["rdk-gen", "--spec", str(scene_spec_file(tmp_path)), "--seed", "4",
             "--out", str(obs), "--labels-out", str(gt)])
    blank_frame(obs, 2, "points")
    blank_frame(gt, 2, "labels")
    run_cli(["track", "--obs", str(obs), "-K", "2", "-L", "8", "--seed", "5",
             "--config", str(config_file(tmp_path)), "--out", str(out)])
    report = tmp_path / "report.json"
    run_cli(["eval", "--states", str(out), "--obs", str(obs), "--gt", str(gt),
             "--grid", "16", "--out", str(report)])
    rep = json.loads(report.read_text())
    assert rep["frames"][2] == {"t": 2, "points": 0}
    aris = [f["ari"] for i, f in enumerate(rep["frames"]) if i != 2]
    assert len(aris) == 4 and all("probe_jaccard" in f for i, f in enumerate(rep["frames"])
                                  if i != 2)
    assert rep["mean_ari"] == float(np.mean(aris))

    # a dump whose frames are all empty has nothing to score
    empty = tmp_path / "empty.jsonl"
    mio.write_states(empty, [mio.read_states(out)[2].state], first_t=2)
    result = CliRunner().invoke(main, ["eval", "--states", str(empty), "--obs", str(obs),
                                       "--gt", str(gt), "--out", str(tmp_path / "o")],
                                catch_exceptions=False)
    assert result.exit_code == 1, result.output
    assert result.output.splitlines() == ["Error: state dump holds no frame with points"]
    assert not (tmp_path / "o").exists()


def feature_file(tmp_path):
    """A simulated frame whose points carry 2-D features."""
    path = tmp_path / "obs.jsonl"
    run_cli(["simulate", "-K", "2", "-L", "4", "-N", "40", "--seed", "1", "--out", str(path)])
    obs = mio.read_observations(path)[0]
    features = np.random.default_rng(0).standard_normal((len(obs), 2))
    mio.write_observations(path, [Observations(obs.positions, obs.velocities, features)])
    return path


def test_fit_on_a_feature_bearing_file_with_the_default_config(tmp_path):
    # the feature term follows the model: without sigma2_F it is off, and says so
    out = tmp_path / "fit.jsonl"
    result = run_cli(["fit", "--obs", str(feature_file(tmp_path)), "-K", "2", "-L", "4",
                      "--sweeps", "3", "--out", str(out)])
    assert mio.read_states(out)[0].state.N == 40
    assert result.stderr == ("note: the observations carry features, but sigma2_F is "
                             "unset, so the feature term is not scored\n")


def test_track_notes_unscored_features_only_without_sigma2_F(tmp_path):
    obs = str(feature_file(tmp_path))
    args = ["track", "--obs", obs, "-K", "2", "-L", "4", "--out", str(tmp_path / "t.jsonl")]
    assert "sigma2_F is unset" in run_cli(args).stderr
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"hyper": {"sigma2_F": 0.3}, "track": {"init_sweeps": 2}}))
    assert run_cli(args + ["--config", str(conf)]).stderr == ""


def test_fit_samples_particle_covariances_at_frame_zero(tmp_path, monkeypatch):
    from mattertrack import tracker

    schedules, sweep = [], tracker.sweep
    monkeypatch.setattr(tracker, "sweep", lambda state, obs, hyper, schedule, cands: (
        schedules.append(schedule.steps) or sweep(state, obs, hyper, schedule, cands)))
    run_cli(["fit", "--obs", str(feature_file(tmp_path)), "-K", "2", "-L", "4",
             "--sweeps", "3", "--out", str(tmp_path / "fit.jsonl")])
    assert len(schedules) == 3
    assert all("particle_covs" in names and "assign_particles" in names
               for names in schedules)


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None      # every scipy import now raises ImportError

import numpy as np
import mattertrack
import mattertrack.cli
from mattertrack import (HyperParams, full_sweep_schedule, init_state, log_joint,
                         make_transform_candidates, probe_point_eval, sample_forward,
                         sweep)

hyper = HyperParams.default(2).replace(p_outlier=0.1)
cands = make_transform_candidates(2, hyper, M_r=5, M_t=9)
_, obs = sample_forward(hyper, 2, 4, 40, 0, cands)
state = sweep(init_state(obs, 2, 4, hyper, seed=1), obs, hyper, full_sweep_schedule(), cands)
assert np.isfinite(log_joint(state, obs, hyper, cands))
pred = np.zeros((6, 6), dtype=int)
pred[:, 3:] = 1
acc, jac, _ = probe_point_eval(pred, pred == 0, n_probes=10)
assert acc == jac == 1.0
"""


def test_package_runs_without_scipy():
    # scipy is only a test oracle: the library imports and runs a forward draw,
    # an init, a sweep with the outlier term, log_joint and probe scores without it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
