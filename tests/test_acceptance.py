"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line.  Tolerances are fixed here, not calibrated elsewhere.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
report lines.
"""
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from mattertrack import io as mio
from mattertrack.cli import main as cli_main
from mattertrack.distributions import (
    log_normalize,
    make_transform_candidates,
    rotation_2d,
)
from mattertrack.evaluation import (
    adjusted_rand_index,
    matter_weighted_jaccard,
    point_cluster_labels,
    probe_point_eval,
)
from mattertrack.geweke import default_check_hyper, run_geweke
from mattertrack.gibbs import (
    cluster_assignment_log_probs,
    cluster_cov_posterior,
    cluster_mean_conditional,
    full_sweep_schedule,
    particle_cov_posterior,
    particle_mean_conditional,
    point_assignment_log_probs,
    rotation_log_probs,
    sweep,
    translation_log_probs,
    update_cluster_weights,
    update_particle_weights,
    velocity_cov_posterior,
    velocity_mean_conditional,
)
from mattertrack.initialization import (
    data_dependent_hyperparams,
    init_state,
    kabsch_align,
)
from mattertrack.model import log_joint
from mattertrack.sva import sva_cluster
from mattertrack.synth import (
    Body,
    SceneSpec,
    make_rigid_scene,
    separated_mixture_scene,
)
from mattertrack.tracker import TrackConfig, track
from mattertrack.types import Observations

from conftest import diag_hyper, make_state, single_particle_state


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


# ---------------------------------------------------------------------------
# 1. Conjugacy oracles for all twelve conditionals (collapsed instances)
# ---------------------------------------------------------------------------

def test_criterion_01_conjugacy_oracles():
    hyper = diag_hyper(2, sigma2_V=0.05, sigma2_mu_H=3.0)
    tol = 1e-10
    failures = []

    # point assignment equals a hand-normalized product of scalar terms
    eye = np.eye(2)
    state = make_state(
        mu_B=[[-0.7, 0.2], [0.9, -0.4]], Sigma_B=[0.3 * eye] * 2,
        vel=[[0.05, 0.0], [-0.02, 0.04]], Sigma_V=[0.02 * eye] * 2,
        pi_B=[0.4, 0.6], mu_H=[[0.0, 0.0]], Sigma_H=[4.0 * eye], rot=[eye],
        trans=[[0.0, 0.0]], pi_H=[1.0], z_B=[0], z_H=[0, 0])
    obs1 = Observations(np.array([[0.1, -0.2]]), np.array([[0.01, 0.02]]))
    probs = log_normalize(point_assignment_log_probs(state, obs1, hyper)[0])
    hand = []
    from scipy.stats import norm

    for ell in range(2):
        p = state.pi_B[ell]
        for d in range(2):
            p *= norm(state.mu_B[ell][d], math.sqrt(0.3)).pdf(obs1.positions[0, d])
            p *= norm(state.vel[ell][d], math.sqrt(0.02)).pdf(obs1.velocities[0, d])
        hand.append(p)
    hand = np.array(hand) / np.sum(hand)
    if np.max(np.abs(probs - hand)) > tol:
        failures.append("point assignment")

    # Dirichlet posterior concentrations are exact at both levels
    state2 = state.replace(z_B=np.array([0, 0, 0, 1]))
    rng = np.random.default_rng(0)
    draws = np.stack([update_particle_weights(state2, hyper, rng) for _ in range(20000)])
    if np.max(np.abs(draws.mean(axis=0) - [4 / 6, 2 / 6])) > 0.01:
        failures.append("particle weights")
    draws_h = np.stack([update_cluster_weights(state2, hyper, rng) for _ in range(20000)])
    if abs(draws_h.mean(axis=0)[0] - 1.0) > tol:  # single cluster: Dir(alpha+2) -> 1
        failures.append("cluster weights")

    # particle means: scalar conjugate closed form and grid argmax of log_joint
    sigma_h, sigma_b = 1.5, 0.3
    st3 = single_particle_state(dim=2, mu_b=(0.0, 0.0), sigma_b=sigma_b,
                                mu_h=(0.2, 0.1), sigma_h=sigma_h, z_B=[0])
    x3 = np.array([[0.8, -0.6]])
    ob3 = Observations(x3, np.zeros((1, 2)))
    mean, cov = particle_mean_conditional(st3, ob3, hyper, 0)
    for d in range(2):
        prec = 1 / sigma_h + 1 / sigma_b
        m = st3.mu_H[0][d] / sigma_h + x3[0, d] / sigma_b
        if abs(mean[d] - m / prec) > tol or abs(cov[d, d] - 1 / prec) > tol:
            failures.append("particle mean closed form")
    R = rotation_2d(0.25)
    st3g = single_particle_state(dim=2, mu_b=(0.5, 0.2), sigma_b=0.4,
                                 v=(0.15, -0.02), sigma_v=0.06, mu_h=(0.0, 0.0),
                                 sigma_h=1.2, rot=R, trans=(0.05, 0.0), z_B=[0, 0])
    ob3g = Observations(np.array([[0.6, 0.1], [0.4, 0.3]]),
                        np.array([[0.1, 0.0], [0.12, -0.05]]))
    mean_g, _ = particle_mean_conditional(st3g, ob3g, hyper, 0)
    centered = st3g.replace(mu_B=mean_g[None, :])
    grid = np.linspace(mean_g[0] - 0.4, mean_g[0] + 0.4, 1601)
    vals = [log_joint(centered.replace(mu_B=np.array([[g, mean_g[1]]])), ob3g, hyper)
            for g in grid]
    if abs(grid[int(np.argmax(vals))] - mean_g[0]) > grid[1] - grid[0]:
        failures.append("particle mean grid argmax")

    # covariance posteriors match hand-computed scatter parameters
    psi, nu = particle_cov_posterior(st3, ob3, hyper, 0)
    d0 = x3[0] - st3.mu_B[0]
    if np.max(np.abs(psi - (hyper.Psi_B + np.outer(d0, d0)))) > tol or nu != hyper.nu_B + 1:
        failures.append("particle covariance")
    psi_v, nu_v = velocity_cov_posterior(st3, ob3, hyper, 0)
    dv = ob3.velocities[0] - st3.vel[0]
    if np.max(np.abs(psi_v - (hyper.Psi_V + np.outer(dv, dv)))) > tol or nu_v != hyper.nu_V + 1:
        failures.append("velocity covariance")
    psi_h, nu_h = cluster_cov_posterior(st3, hyper, 0)
    dm = st3.mu_B[0] - st3.mu_H[0]
    if np.max(np.abs(psi_h - (hyper.Psi_H + np.outer(dm, dm)))) > tol or nu_h != hyper.nu_H + 1:
        failures.append("cluster covariance")

    # velocity means: scalar conjugate closed form
    st5 = single_particle_state(dim=2, v=(0.0, 0.0), sigma_v=0.05,
                                trans=(0.1, 0.02), z_B=[0])
    ob5 = Observations(np.zeros((1, 2)), np.array([[0.22, -0.04]]))
    mean5, cov5 = velocity_mean_conditional(st5, ob5, hyper, 0)
    vbar = np.array([0.1, 0.02])
    for d in range(2):
        prec = 1 / hyper.sigma2_V + 1 / 0.05
        m = vbar[d] / hyper.sigma2_V + ob5.velocities[0, d] / 0.05
        if abs(mean5[d] - m / prec) > tol or abs(cov5[d, d] - 1 / prec) > tol:
            failures.append("velocity mean")

    # cluster assignment categorical matches hand products
    theta = 0.2
    mu7 = np.array([1.0, 0.0])
    v7 = (rotation_2d(theta) - eye) @ mu7
    st7 = make_state(
        mu_B=[mu7, [0.0, 1.0]], Sigma_B=[0.1 * eye] * 2, vel=[v7, [0.0, 0.0]],
        Sigma_V=[0.01 * eye] * 2, pi_B=[0.5, 0.5],
        mu_H=[[0.0, 0.0], [0.0, 0.0]], Sigma_H=[eye, eye],
        rot=[rotation_2d(theta), rotation_2d(-theta)],
        trans=np.zeros((2, 2)), pi_H=[0.5, 0.5], z_B=[0], z_H=[0, 1])
    lp7 = cluster_assignment_log_probs(st7, hyper)[0]
    hand7 = []
    for k in range(2):
        p = 0.5
        for d in range(2):
            p *= norm(st7.mu_H[k][d], 1.0).pdf(mu7[d])
        vbar_k = (st7.rot[k] - eye) @ mu7
        for d in range(2):
            p *= norm(vbar_k[d], math.sqrt(hyper.sigma2_V)).pdf(v7[d])
        hand7.append(p)
    hand7 = np.array(hand7) / np.sum(hand7)
    if np.max(np.abs(log_normalize(lp7) - hand7)) > tol:
        failures.append("cluster assignment")

    # cluster means: scalar conjugate closed form and grid argmax
    mus9 = np.array([[0.6, -0.2], [1.0, 0.4]])
    st9 = make_state(
        mu_B=mus9, Sigma_B=[0.1 * eye] * 2, vel=np.zeros((2, 2)),
        Sigma_V=[0.05 * eye] * 2, pi_B=[0.5, 0.5], mu_H=[[0.0, 0.0]],
        Sigma_H=[1.2 * eye], rot=[eye], trans=[[0.0, 0.0]], pi_H=[1.0],
        z_B=[0, 1], z_H=[0, 0])
    mean9, cov9 = cluster_mean_conditional(st9, hyper, 0)
    for d in range(2):
        prec = 1 / hyper.sigma2_mu_H + 2 / 1.2
        m = mus9[:, d].sum() / 1.2
        if abs(mean9[d] - m / prec) > tol or abs(cov9[d, d] - 1 / prec) > tol:
            failures.append("cluster mean closed form")
    st9r = st9.replace(rot=np.array([rotation_2d(-0.2)]), trans=np.array([[0.05, -0.02]]),
                       vel=np.array([[0.1, 0.05], [0.0, 0.12]]))
    mean9r, _ = cluster_mean_conditional(st9r, hyper, 0)
    ob9 = Observations(mus9 + 0.01, st9r.vel + 0.005)
    centered9 = st9r.replace(mu_H=mean9r[None, :])
    grid9 = np.linspace(mean9r[1] - 0.4, mean9r[1] + 0.4, 1601)
    vals9 = [log_joint(centered9.replace(mu_H=np.array([[mean9r[0], g]])), ob9, hyper)
             for g in grid9]
    if abs(grid9[int(np.argmax(vals9))] - mean9r[1]) > grid9[1] - grid9[0]:
        failures.append("cluster mean grid argmax")

    # discrete transform posteriors concentrate on the
    # synthesizing candidate and reduce to the prior without members
    hyper_t = diag_hyper(2, sigma2_V=1e-6)
    cands = make_transform_candidates(2, hyper_t, M_r=9, M_t=25)
    j_star, m_star = 6, 7
    rng11 = np.random.default_rng(1)
    mus11 = rng11.standard_normal((12, 2))
    t11 = cands.translations[m_star]
    vel11 = t11 + mus11 @ (cands.rotations[j_star] - eye).T
    st11 = make_state(
        mu_B=mus11, Sigma_B=[0.1 * eye] * 12, vel=vel11, Sigma_V=[0.01 * eye] * 12,
        pi_B=np.full(12, 1 / 12), mu_H=[[0.0, 0.0], [5.0, 5.0]],
        Sigma_H=[eye] * 2, rot=[cands.rotations[j_star], eye],
        trans=[t11, [0.0, 0.0]], pi_H=[0.5, 0.5],
        z_B=list(range(12)), z_H=[0] * 12)
    rp = log_normalize(rotation_log_probs(st11, hyper_t, cands, 0))
    tp = log_normalize(translation_log_probs(st11, hyper_t, cands, 0))
    if rp[j_star] < 0.999 or tp[m_star] < 0.999:
        failures.append("transform synthesis")
    if (np.max(np.abs(rotation_log_probs(st11, hyper_t, cands, 1)
                      - cands.rotation_log_prior)) > tol
            or np.max(np.abs(translation_log_probs(st11, hyper_t, cands, 1)
                             - cands.translation_log_prior)) > tol):
        failures.append("transform prior fallback")

    report(1, "conjugacy oracles for all twelve conditionals", not failures, ", ".join(failures))


# ---------------------------------------------------------------------------
# 2. Forward/Gibbs marginal consistency
# ---------------------------------------------------------------------------

def test_criterion_02_geweke_consistency():
    hyper = default_check_hyper(2)
    rep = run_geweke(hyper, K=2, L=4, N=16, iterations=10_000, seed=0,
                     sweeps_per_iter=2)
    report(2, "forward vs Gibbs consistency (10^4 iterations)",
           rep.max_abs_z < 4.0, f"max |z| = {rep.max_abs_z:.2f}")


# ---------------------------------------------------------------------------
# 3. Forward recovery at 5x separation, both dimensions
# ---------------------------------------------------------------------------

def test_criterion_03_forward_recovery():
    passes, total = 0, 0
    for dim in (2, 3):
        hyper = diag_hyper(dim, sigma2_mu_H=25.0, sigma2_V=0.04)
        cands = make_transform_candidates(dim, hyper)
        sched = full_sweep_schedule()
        for seed in range(20):
            _, obs, truth = separated_mixture_scene(
                K=3, L=30, N=3000, dim=dim, seed=seed, separation=5.0,
                hyper=hyper, candidates=cands)
            state = init_state(obs, 3, 30, hyper, seed=seed)
            for _ in range(50):
                state = sweep(state, obs, hyper, sched, cands)
            ari = adjusted_rand_index(point_cluster_labels(state), truth)
            passes += ari >= 0.9
            total += 1
    report(3, "forward recovery ARI >= 0.9 (K=3, L=30, N=3000, D in {2,3})",
           passes >= 0.95 * total, f"{passes}/{total} seeds")


# ---------------------------------------------------------------------------
# 4. Kabsch exact recovery
# ---------------------------------------------------------------------------

def test_criterion_04_kabsch_exact_recovery():
    from mattertrack.distributions import rotation_from_axis_angle

    rng = np.random.default_rng(2)
    worst = 0.0
    for dim in (2, 3):
        for _ in range(20):
            if dim == 2:
                R_true = rotation_2d(rng.uniform(-math.pi, math.pi))
            else:
                R_true = rotation_from_axis_angle(rng.standard_normal(3),
                                                  rng.uniform(-math.pi, math.pi))
            t_true = rng.standard_normal(dim)
            src = rng.standard_normal((10, dim))
            dst = src @ R_true.T + t_true
            R, t = kabsch_align(src, dst)
            resid = np.linalg.norm(dst - (src @ R.T + t))
            worst = max(worst, resid, np.abs(R - R_true).max(), np.abs(t - t_true).max())
    report(4, "Kabsch exact rigid recovery", worst <= 1e-9, f"worst residual {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. Hard-assignment baseline behavior
# ---------------------------------------------------------------------------

def test_criterion_05_sva_baseline():
    rng = np.random.default_rng(3)
    monotone = True
    for trial in range(100):
        n = int(rng.integers(30, 80))
        obs = Observations(rng.standard_normal((n, 2)),
                           0.3 * rng.standard_normal((n, 2)))
        res = sva_cluster(obs, K=2, L=5, seed=trial, max_iter=15)
        if np.any(np.diff(res.losses) > 1e-9):
            monotone = False

    spec = SceneSpec(
        bodies=(
            Body(kind="disk", center=(0.3, 0.5), size=0.12, num_dots=120,
                 velocity=(0.6, 0.0)),
            Body(kind="rect", center=(0.75, 0.5), size=(0.3, 0.6), num_dots=120),
        ),
        extent=((0.0, 1.2), (0.0, 1.0)), frames=2)
    frames, labels = make_rigid_scene(spec, 4)
    res = sva_cluster(frames[0], K=2, L=12, seed=0, max_iter=40)
    two_body_ari = adjusted_rand_index(res.z_H[res.z_B], labels[0])

    angle_ok = True
    for theta_deg in (1.0, 3.0, 5.0):
        theta = math.radians(theta_deg)
        center = np.array([0.5, 0.5])
        x = center + 0.3 * rng.standard_normal((150, 2))
        v = (x - center) @ (rotation_2d(theta) - np.eye(2)).T
        r = sva_cluster(Observations(x, v), K=1, L=8, seed=1, max_iter=25)
        est = math.atan2(r.rotations[0][1, 0], r.rotations[0][0, 0])
        if abs(est - theta) > 0.1 * theta:
            angle_ok = False

    ok = monotone and two_body_ari == 1.0 and angle_ok
    report(5, "hard-assignment baseline (monotone, exact split, angle recovery)",
           ok, f"monotone={monotone}, two-body ARI={two_body_ari:.2f}, angle<=10%={angle_ok}")


# ---------------------------------------------------------------------------
# 6. Moving-dot same-object judgments
# ---------------------------------------------------------------------------

def test_criterion_06_rdk_judgments(heldout):
    # unambiguous: one object with distinct rigid motion over a static field;
    # ambiguous: object and surround share one translation, and the probes
    # straddle the invisible boundary (scenes and probes: tools/rdk_heldout.py)
    hyper, cands = heldout.hyper_and_candidates()
    accuracy = np.mean([heldout.judge_unambiguous(i, 100 + i, hyper, cands).correct
                        for i in range(20)])
    same_rate = np.mean([heldout.judge_ambiguous(i, 200 + 10 * i + rep, hyper, cands).same
                         for i in range(10) for rep in range(3)])

    ok = accuracy >= 0.9 and same_rate >= 0.7
    report(6, "same-object judgments (unambiguous >= 90%, ambiguous same >= 70%)",
           ok, f"accuracy={accuracy:.0%}, ambiguous same rate={same_rate:.0%}")


# ---------------------------------------------------------------------------
# 7. Tracking stability
# ---------------------------------------------------------------------------

def test_criterion_07_tracking_stability():
    hyper = diag_hyper(2, sigma2_V=1e-3, s2=0.01, theta_max=math.pi / 8,
                       kappa=8.0, sigma2_mu_H=25.0)
    # static scene over 20 frames: anchored particles stay within their extent
    spec_static = SceneSpec(
        bodies=(Body(kind="rect", center=(0.5, 0.5), size=(0.8, 0.8), num_dots=240),),
        extent=((0.0, 1.0), (0.0, 1.0)), frames=20, velocity_noise=0.004)
    frames, _ = make_rigid_scene(spec_static, 1)
    states = track(frames, K=2, L=12, hyper=hyper, cfg=TrackConfig(init_sweeps=25), seed=0)
    drift = np.linalg.norm(states[-1].mu_B - states[0].mu_B, axis=1)
    sigma = np.sqrt(np.trace(states[-1].Sigma_B, axis1=1, axis2=2) / 2)
    counts = np.bincount(states[-1].z_B[states[-1].z_B < 12], minlength=12)
    anchored = counts > 0
    static_ok = anchored.sum() >= 8 and np.all(drift[anchored] < 3 * sigma[anchored])

    # one translating body, one static, 30 frames
    u = np.array([0.15, 0.0])
    spec_moving = SceneSpec(
        bodies=(
            Body(kind="disk", center=(0.35, 1.5), size=0.16, num_dots=150,
                 velocity=tuple(u)),
            Body(kind="rect", center=(0.8, 0.45), size=(1.2, 0.8), num_dots=150),
        ),
        extent=((0.0, 6.0), (0.0, 2.0)), frames=30, velocity_noise=0.004)
    frames_m, labels_m = make_rigid_scene(spec_moving, 2)
    cands = make_transform_candidates(2, hyper)
    states_m = track(frames_m, K=2, L=16, hyper=hyper, cfg=TrackConfig(init_sweeps=25),
                     seed=1, candidates=cands)
    spacing, errors = [], []
    for t, state in enumerate(states_m):
        obs = frames_m[t]
        d_pp = np.linalg.norm(obs.positions[:, None, :] - obs.positions[None], axis=2)
        np.fill_diagonal(d_pp, np.inf)
        spacing.append(d_pp.min(axis=1).mean())
        counts = np.bincount(state.z_B[state.z_B < state.L], minlength=state.L)
        live = counts > 0
        d_particle = np.linalg.norm(
            obs.positions[None, :, :] - state.mu_B[live][:, None, :], axis=2)
        errors.append(d_particle.min(axis=1).mean())
    lock_ok = np.mean(errors) < 2 * np.mean(spacing)

    nearest = cands.translations[np.argmin(np.linalg.norm(cands.translations - u, axis=1))]
    hits = 0
    for t in range(1, len(states_m)):
        state = states_m[t]
        pred = point_cluster_labels(state)
        body = labels_m[t] == 0
        ks, cnt = np.unique(pred[body], return_counts=True)
        k_body = int(ks[np.argmax(cnt)])
        hits += np.allclose(state.trans[k_body], nearest, atol=1e-12)
    trans_ok = hits >= 0.9 * (len(states_m) - 1)

    ok = static_ok and lock_ok and trans_ok
    report(7, "tracking stability (static drift, lock, translation mode)",
           ok, f"static={static_ok}, lock={lock_ok}, translation hits={hits}/29")


# ---------------------------------------------------------------------------
# 8. Subsampling tradeoff
# ---------------------------------------------------------------------------

def test_criterion_08_subsampling_tradeoff():
    from mattertrack import rng as rngmod
    from mattertrack.rng import substream

    hyper = diag_hyper(2, sigma2_V=1e-3, s2=0.01, theta_max=math.pi / 8,
                       kappa=8.0, sigma2_mu_H=25.0)
    spec = SceneSpec(
        bodies=(
            Body(kind="disk", center=(0.35, 1.5), size=0.16, num_dots=150,
                 velocity=(0.15, 0.0)),
            Body(kind="rect", center=(0.8, 0.45), size=(1.2, 0.8), num_dots=150),
        ),
        extent=((0.0, 6.0), (0.0, 2.0)), frames=12, velocity_noise=0.004)
    frames, labels = make_rigid_scene(spec, 7)
    full = track(frames, K=2, L=14, hyper=hyper,
                 cfg=TrackConfig(init_sweeps=20, subsample_rate=1.0), seed=5)
    sub = track(frames, K=2, L=14, hyper=hyper,
                cfg=TrackConfig(init_sweeps=20, subsample_rate=1 / 8), seed=5)
    t = len(frames) - 1
    ari_full = adjusted_rand_index(point_cluster_labels(full[-1]), labels[t])
    idx = np.sort(substream(5, rngmod.SUBSAMPLE, t)
                  .choice(len(frames[t]), size=len(sub[-1].z_B), replace=False))
    ari_sub = adjusted_rand_index(point_cluster_labels(sub[-1]), labels[t][idx])
    gap = abs(ari_full - ari_sub)
    report(8, "subsampling 1/8 vs full ARI gap <= 0.05", gap <= 0.05,
           f"full={ari_full:.3f}, 1/8={ari_sub:.3f}, gap={gap:.3f}")


# ---------------------------------------------------------------------------
# 9. Metric identities
# ---------------------------------------------------------------------------

def test_criterion_09_metric_identities():
    reduction = matter_weighted_jaccard([1, 1], [1.0, 1.0], [1.0, 0.0])
    weighted = matter_weighted_jaccard([3, 1], [1.0, 1.0], [1.0, 0.0])

    gt = np.zeros((20, 40), dtype=bool)
    gt[5:15, 0:20] = True
    pred = np.full((20, 40), -1)
    pred[5:15, 10:30] = 0
    overlap = np.argwhere(np.logical_and(gt, pred == 0))
    _, jac, _ = probe_point_eval(pred, gt, probes=overlap)

    ok = reduction == 0.5 and weighted == 0.75 and jac == pytest.approx(1 / 3, abs=1e-12)
    report(9, "metric identities (Jaccard reduction exact, half-overlap J = 1/3)",
           ok, f"reduction={reduction}, weighted={weighted}, half-overlap J={jac:.6f}")


# ---------------------------------------------------------------------------
# 10. Determinism across runs and across a resume split
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    runner = CliRunner()
    spec = {
        "bodies": [
            {"kind": "disk", "center": [0.35, 1.5], "size": 0.15, "num_dots": 60,
             "velocity": [0.15, 0.0]},
            {"kind": "rect", "center": [0.8, 0.45], "size": [1.0, 0.7], "num_dots": 60},
        ],
        "extent": [[0.0, 4.0], [0.0, 2.0]],
        "background_dots": 10,
        "flicker_prob": 0.05,
        "frames": 5,
    }
    spec_path = tmp_path / "scene.json"
    spec_path.write_text(json.dumps(spec))
    conf_path = tmp_path / "conf.json"
    conf_path.write_text(json.dumps({
        "hyper": {"sigma2_V": 0.001, "s2": 0.01},
        "track": {"init_sweeps": 8},
        "candidates": {"M_r": 9, "M_t": 25},
    }))
    obs_path = tmp_path / "obs.jsonl"
    res = runner.invoke(cli_main, ["rdk-gen", "--spec", str(spec_path), "--seed", "7",
                                   "--out", str(obs_path)], catch_exceptions=False)
    assert res.exit_code == 0, res.output

    def track_dump(obs, out, *extra):
        res = runner.invoke(cli_main, [
            "track", "--obs", str(obs), "-K", "2", "-L", "8", "--seed", "11",
            "--config", str(conf_path), *extra, "--out", str(out)], catch_exceptions=False)
        assert res.exit_code == 0, res.output
        return out.read_bytes()

    full = [track_dump(obs_path, tmp_path / f"track_{tag}.jsonl") for tag in ("a", "b")]
    head_obs = tmp_path / "head_obs.jsonl"
    head_obs.write_text("".join(obs_path.read_text().splitlines(keepends=True)[:3]))
    head = track_dump(head_obs, tmp_path / "head.jsonl")
    tail = track_dump(obs_path, tmp_path / "tail.jsonl",
                      "--resume-from", str(tmp_path / "head.jsonl"))
    ok = full[0] == full[1] and head + tail == full[0]
    report(10, "bitwise determinism for fixed seed, rerun and 3 + 2 frame resume split", ok)
