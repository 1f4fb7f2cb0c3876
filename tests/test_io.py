"""File formats: round trips, malformed-input diagnostics, config validation,
and state-dump resume."""
import json
from pathlib import Path

import numpy as np
import pytest

from mattertrack import io as mio
from mattertrack.gibbs import Block, Step, tracking_frame_schedule
from mattertrack.synth import Body, SceneSpec, make_rigid_scene
from mattertrack.tracker import TrackConfig, track
from mattertrack.types import HyperParams, Observations, ValidationError

from conftest import diag_hyper


def small_frames(features=False):
    rng = np.random.default_rng(0)
    out = []
    for _ in range(3):
        n = int(rng.integers(4, 9))
        feat = rng.standard_normal((n, 2)) if features else None
        out.append(Observations(rng.standard_normal((n, 2)),
                                rng.standard_normal((n, 2)), feat))
    return out


def test_observation_roundtrip(tmp_path):
    frames = small_frames()
    path = tmp_path / "obs.jsonl"
    mio.write_observations(path, frames)
    back = mio.read_observations(path)
    assert len(back) == 3
    for a, b in zip(frames, back):
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.velocities, b.velocities)


def test_observation_roundtrip_with_features(tmp_path):
    frames = small_frames(features=True)
    path = tmp_path / "obs.jsonl"
    mio.write_observations(path, frames)
    back = mio.read_observations(path)
    for a, b in zip(frames, back):
        np.testing.assert_array_equal(a.features, b.features)


def test_empty_file_roundtrip(tmp_path):
    path = tmp_path / "empty.jsonl"
    mio.write_observations(path, [])
    assert mio.read_observations(path) == []


def test_handcrafted_two_point_file(tmp_path):
    path = tmp_path / "two.jsonl"
    path.write_text(
        '{"t": 0, "points": [{"x": [1.5, -2.0], "v": [0.1, 0.2]}, '
        '{"x": [3.0, 4.0], "v": [-0.5, 0.0]}]}\n')
    frames = mio.read_observations(path)
    assert len(frames) == 1
    np.testing.assert_array_equal(frames[0].positions, [[1.5, -2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(frames[0].velocities, [[0.1, 0.2], [-0.5, 0.0]])


def test_malformed_json_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 0, "points": [{"x": [1.0, 2.0], "v": [0.0, 0.0]}]}\n{oops\n')
    with pytest.raises(ValidationError, match="line 2"):
        mio.read_observations(path)


def test_dimension_mismatch_names_frame(tmp_path):
    path = tmp_path / "dim.jsonl"
    path.write_text(
        '{"t": 0, "points": [{"x": [1.0, 2.0], "v": [0.0, 0.0]}]}\n'
        '{"t": 1, "points": [{"x": [1.0, 2.0, 3.0], "v": [0.0, 0.0, 0.0]}]}\n')
    with pytest.raises(ValidationError, match="frame 1"):
        mio.read_observations(path)


def test_partial_features_rejected(tmp_path):
    path = tmp_path / "feat.jsonl"
    path.write_text(
        '{"t": 0, "points": [{"x": [1.0, 2.0], "v": [0.0, 0.0], "f": [1.0]}, '
        '{"x": [0.0, 0.0], "v": [0.0, 0.0]}]}\n')
    with pytest.raises(ValidationError, match="features"):
        mio.read_observations(path)


def test_labels_roundtrip(tmp_path):
    labels = [np.array([0, 1, -1]), np.array([2, 2])]
    path = tmp_path / "gt.jsonl"
    mio.write_labels(path, labels)
    back = mio.read_labels(path)
    for a, b in zip(labels, back):
        np.testing.assert_array_equal(a, b)


def test_scene_roundtrips_through_format(tmp_path):
    spec = SceneSpec(
        bodies=(Body(kind="disk", center=(0.4, 0.5), size=0.2, num_dots=25,
                     velocity=(0.05, 0.0)),),
        background_dots=10, flicker_prob=0.2, frames=4)
    frames, labels = make_rigid_scene(spec, seed=1)
    obs_path = tmp_path / "scene.jsonl"
    mio.write_observations(obs_path, frames)
    back = mio.read_observations(obs_path)
    for a, b in zip(frames, back):
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.velocities, b.velocities)


# -- hyper / config --------------------------------------------------------------

def test_hyper_dict_roundtrip():
    hyper = diag_hyper(2, sigma2_F=0.5, p_outlier=0.1)
    d = mio.hyper_to_dict(hyper)
    back = mio.hyper_from_dict(d, dim=2)
    for name in ("Psi_H", "Psi_B", "Psi_V", "mu_H_prior"):
        np.testing.assert_array_equal(getattr(hyper, name), getattr(back, name))
    assert back.sigma2_F == 0.5
    assert back.p_outlier == 0.1


def test_hyper_from_dict_scalar_broadcast():
    h = mio.hyper_from_dict({"Psi_B": 0.3, "mu_H_prior": 1.0}, dim=2)
    np.testing.assert_array_equal(h.Psi_B, 0.3 * np.eye(2))
    np.testing.assert_array_equal(h.mu_H_prior, [1.0, 1.0])


def test_hyper_unknown_key_is_hard_error():
    with pytest.raises(ValidationError, match="sigma_B"):
        mio.hyper_from_dict({"sigma_B": 1.0}, dim=2)


def test_config_file_sections_and_unknown_keys(tmp_path):
    good = tmp_path / "conf.json"
    good.write_text(json.dumps({
        "hyper": {"s2": 0.02, "sigma2_V": 0.001},
        "track": {"init_sweeps": 5, "subsample_rate": 0.5},
        "candidates": {"M_r": 9, "M_t": 9},
    }))
    cfg = mio.load_config(good)
    hyper = cfg.resolve_hyper(2)
    assert hyper.s2 == 0.02
    tcfg = cfg.resolve_track()
    assert tcfg.init_sweeps == 5
    assert cfg.candidate_sizes() == (9, 9)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"hyper": {}, "tracking": {}}))
    with pytest.raises(ValidationError, match="tracking"):
        mio.load_config(bad)

    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"track": {"warmup": 3}}))
    with pytest.raises(ValidationError, match="warmup"):
        mio.load_config(bad2)


def test_schedule_dict_roundtrip():
    raw = {"steps": ["assign_points",
                     {"repeat": 3, "steps": [["particle_means", 2]]}]}
    cfg = mio.track_config_from_dict({"per_frame_schedule": raw})
    assert cfg.per_frame_schedule == (
        Step("assign_points"), Block(items=(Step("particle_means", 2),), repeat=3))
    with pytest.raises(ValidationError, match="no_such_step"):
        mio.track_config_from_dict({"per_frame_schedule": {"steps": ["no_such_step"]}})


def test_track_config_schedule_roundtrip():
    cfg = TrackConfig(init_sweeps=7, per_frame_schedule=tracking_frame_schedule().steps,
                      freeze_z_H=True, subsample_rate=0.25)
    back = mio.track_config_from_dict({
        "init_sweeps": 7, "freeze_z_H": True, "subsample_rate": 0.25,
        "per_frame_schedule": {"steps": [
            "assign_points_spatial", "particle_weights", "particle_means", "assign_points",
            "particle_weights", "particle_covs", "particle_velocities",
            "particle_velocity_covs", "assign_particles", "cluster_weights",
            "cluster_means", "cluster_covs", "cluster_rotations", "cluster_translations"]}})
    assert back == cfg
    # frozen z_H and Sigma_B leave their steps out
    assert back.frame_schedule().flatten() == tuple(
        n for n in tracking_frame_schedule().flatten()
        if n not in ("particle_covs", "assign_particles"))


@pytest.mark.parametrize("flag", ["freeze_z_H", "position_only_assignment"])
def test_per_frame_schedule_rejects_flags(tmp_path, flag):
    track_section = {"per_frame_schedule": {"steps": ["assign_points"], flag: True}}
    with pytest.raises(ValidationError, match=flag):
        mio.track_config_from_dict(track_section)
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"track": track_section}))
    with pytest.raises(ValidationError, match=flag):
        mio.load_config(path)


def test_load_config_rejects_unknown_schedule_step(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"track": {"per_frame_schedule": {"steps": ["warp"]}}}))
    with pytest.raises(ValidationError, match="warp"):
        mio.load_config(path)


def test_track_config_freeze_z_H_holds_for_config_steps():
    spec = SceneSpec(
        bodies=(Body(kind="rect", center=(0.5, 0.5), size=(0.8, 0.8), num_dots=80),),
        frames=4, velocity_noise=0.004)
    frames, _ = make_rigid_scene(spec, seed=3)
    steps = ["assign_points_spatial", "particle_weights", "particle_means",
             "assign_points", "assign_particles", "cluster_weights"]
    cfg = mio.track_config_from_dict({"init_sweeps": 3, "freeze_z_H": True,
                                      "per_frame_schedule": {"steps": steps}})
    states = track(frames, K=2, L=6, hyper=diag_hyper(2, sigma2_V=1e-3, s2=0.01),
                   cfg=cfg, seed=4)
    for s in states[1:]:
        np.testing.assert_array_equal(s.z_H, states[0].z_H)


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("**Config files**"):]
    block = section[section.index("```json") + len("```json"):]
    path = tmp_path / "conf.json"
    path.write_text(block[:block.index("```")])
    cfg = mio.load_config(path)
    hyper = cfg.resolve_hyper(2)
    hyper.validate(2)
    assert isinstance(cfg.resolve_track(), TrackConfig)


# -- state dumps ------------------------------------------------------------------

def test_state_dump_roundtrip_exact(tmp_path):
    from mattertrack.model import sample_forward

    hyper = diag_hyper(2)
    state, _ = sample_forward(hyper, K=2, L=4, N=20, seed=5)
    path = tmp_path / "state.jsonl"
    mio.write_states(path, [state], hyper=hyper)
    rec = mio.read_states(path)[0]
    assert rec.t == 0
    back = rec.state
    np.testing.assert_array_equal(back.mu_B, state.mu_B)
    np.testing.assert_array_equal(back.Sigma_V, state.Sigma_V)
    np.testing.assert_array_equal(back.rot, state.rot)
    np.testing.assert_array_equal(back.z_B, state.z_B)
    assert back.rng == state.rng
    assert rec.hyper is not None
    np.testing.assert_array_equal(rec.hyper.Psi_B, hyper.Psi_B)


def test_state_dump_version_check(tmp_path):
    path = tmp_path / "v.jsonl"
    path.write_text('{"format_version": 99, "t": 0, "state": {}}\n')
    with pytest.raises(ValidationError, match="format_version"):
        mio.read_states(path)


def test_dump_resume_matches_uninterrupted_track(tmp_path):
    spec = SceneSpec(
        bodies=(Body(kind="rect", center=(0.5, 0.5), size=(0.8, 0.8),
                     num_dots=120),),
        frames=6, velocity_noise=0.004)
    frames, _ = make_rigid_scene(spec, seed=2)
    hyper = diag_hyper(2, sigma2_V=1e-3, s2=0.01)
    cfg = TrackConfig(init_sweeps=6)
    full = track(frames, K=1, L=6, hyper=hyper, cfg=cfg, seed=9)

    from mattertrack.initialization import data_dependent_hyperparams, init_state
    from mattertrack.tracker import subsample_frame

    obs0 = subsample_frame(frames[0], 1.0, 9, 0)
    eff = data_dependent_hyperparams(obs0, init_state(obs0, 1, 6, hyper, 9), base=hyper)

    dump = tmp_path / "mid.jsonl"
    mio.write_states(dump, full[:3], hyper=eff)
    records = mio.read_states(dump)
    resumed = track(frames, K=1, L=6, hyper=records[-1].hyper, cfg=cfg, seed=9,
                    derive_hyper=False, initial_state=records[-1].state,
                    start_frame=records[-1].t + 1)
    for a, b in zip(resumed, full[3:]):
        np.testing.assert_array_equal(a.mu_B, b.mu_B)
        np.testing.assert_array_equal(a.z_B, b.z_B)
        np.testing.assert_array_equal(a.trans, b.trans)
