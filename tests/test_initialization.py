"""K-means, Kabsch alignment, state initialization, and data-dependent
hyperparameter oracles.

The ``ref_*`` functions are the earlier implementations of k-means and of
``init_state``: an (N, K, D) difference tensor for every distance pass, one
boolean mask per cell for every center update, and one mask per particle and
cluster for the initial statistics.  The streamed kernels must reproduce them
bitwise under the same generator.
"""
import math
import tracemalloc

import numpy as np
import pytest

from mattertrack import initialization
from mattertrack import rng as rngmod
from mattertrack.distributions import (
    chol_spd,
    inverse_wishart_mean,
    make_transform_candidates,
    rotation_2d,
)
from mattertrack.evaluation import adjusted_rand_index, point_cluster_labels
from mattertrack.initialization import (
    _spd_or,
    data_dependent_hyperparams,
    init_state,
    kabsch_align,
    kmeans_objective,
    kmeans_pp,
)
from mattertrack.rng import RngState, substream
from mattertrack.synth import Body, SceneSpec, make_rigid_scene, separated_mixture_scene
from mattertrack.types import ModelState, Observations, ValidationError

from conftest import diag_hyper


# -- reference loops ------------------------------------------------------------

def ref_sq_dists(points, centers):
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def ref_kmeans_single(points, K, rng, max_iter, reseeds):
    N = points.shape[0]
    centers = np.empty((K, points.shape[1]))
    centers[0] = points[rng.integers(N)]
    d2 = np.einsum("nd,nd->n", points - centers[0], points - centers[0])
    for k in range(1, K):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = int(np.searchsorted(np.cumsum(probs), rng.random()).clip(0, N - 1))
        else:
            used = {tuple(c) for c in centers[:k]}
            candidates = [i for i in range(N) if tuple(points[i]) not in used]
            idx = candidates[rng.integers(len(candidates))]
        centers[k] = points[idx]
        d2 = np.minimum(d2, np.einsum("nd,nd->n", points - centers[k], points - centers[k]))
    labels = np.argmin(ref_sq_dists(points, centers), axis=1)
    for _ in range(max_iter):
        for k in range(K):
            members = labels == k
            if np.any(members):
                centers[k] = points[members].mean(axis=0)
            else:
                reseeds.append(k)
                far = int(np.argmax(np.min(ref_sq_dists(points, centers), axis=1)))
                centers[k] = points[far]
        new_labels = np.argmin(ref_sq_dists(points, centers), axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centers, labels


def ref_kmeans_pp(points, K, rng, max_iter=100, n_init=1, reseeds=None):
    points = np.asarray(points, dtype=np.float64)
    reseeds = [] if reseeds is None else reseeds
    best = None
    for _ in range(max(1, n_init)):
        centers, labels = ref_kmeans_single(points, K, rng, max_iter, reseeds)
        obj = kmeans_objective(points, centers, labels)
        if best is None or obj < best[0]:
            best = (obj, centers, labels)
    return best[1], best[2]


def ref_init_state(obs, K, L, hyper, seed):
    N, d = len(obs), obs.dim
    mu_B, z_B = ref_kmeans_pp(obs.positions, L, substream(seed, rngmod.INIT, 0), n_init=4)
    mu_H, z_H = ref_kmeans_pp(mu_B, K, substream(seed, rngmod.INIT, 1), n_init=8)
    pi_B = np.bincount(z_B, minlength=L) / N
    pi_H = np.bincount(z_H, minlength=K) / L
    prior_b = inverse_wishart_mean(hyper.Psi_B, hyper.nu_B)
    prior_v = inverse_wishart_mean(hyper.Psi_V, hyper.nu_V)
    prior_h = inverse_wishart_mean(hyper.Psi_H, hyper.nu_H)
    vel = np.zeros((L, d))
    Sigma_B = np.empty((L, d, d))
    Sigma_V = np.empty((L, d, d))
    for ell in range(L):
        members = z_B == ell
        m = int(members.sum())
        if m:
            vel[ell] = obs.velocities[members].mean(axis=0)
        if m > d:
            dx = obs.positions[members] - mu_B[ell]
            dv = obs.velocities[members] - vel[ell]
            Sigma_B[ell] = _spd_or(dx.T @ dx / (m - 1), prior_b)
            Sigma_V[ell] = _spd_or(dv.T @ dv / (m - 1), prior_v)
        else:
            Sigma_B[ell] = prior_b
            Sigma_V[ell] = prior_v
    Sigma_H = np.empty((K, d, d))
    rot = np.empty((K, d, d))
    trans = np.zeros((K, d))
    for k in range(K):
        members = z_H == k
        m = int(members.sum())
        if m > d:
            dm = mu_B[members] - mu_H[k]
            Sigma_H[k] = _spd_or(dm.T @ dm / (m - 1), prior_h)
        else:
            Sigma_H[k] = prior_h
        point_mask = members[z_B]
        if np.any(point_mask):
            src = obs.positions[point_mask]
            rot[k], trans[k] = kabsch_align(src, src + obs.velocities[point_mask])
        else:
            rot[k] = np.eye(d)
    feat = None
    if obs.features is not None:
        feat = np.zeros((L, obs.features.shape[1]))
        for ell in range(L):
            members = z_B == ell
            if np.any(members):
                feat[ell] = obs.features[members].mean(axis=0)
    return ModelState(
        dim=d, mu_B=mu_B, Sigma_B=Sigma_B, vel=vel, Sigma_V=Sigma_V, pi_B=pi_B,
        mu_H=mu_H, Sigma_H=Sigma_H, rot=rot, trans=trans, pi_H=pi_H,
        z_B=z_B, z_H=z_H, rng=RngState(seed), feat=feat,
    )


def assert_kmeans_matches_reference(points, K, make_rng, **kw):
    """Bitwise centers and labels, and the generator left at the same position.

    Returns the cells the reference reseeded."""
    reseeds = []
    rng_ref, rng_new = make_rng(), make_rng()
    c_ref, z_ref = ref_kmeans_pp(points, K, rng_ref, reseeds=reseeds, **kw)
    c_new, z_new = kmeans_pp(points, K, rng_new, **kw)
    np.testing.assert_array_equal(c_new, c_ref)
    np.testing.assert_array_equal(z_new, z_ref)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return reseeds


# -- kmeans_pp --------------------------------------------------------------

def test_kmeans_k_equals_n_zero_objective():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((12, 2))
    centers, labels = kmeans_pp(pts, 12, seed=0)
    assert kmeans_objective(pts, centers, labels) == pytest.approx(0.0, abs=1e-24)
    assert len(np.unique(labels)) == 12


def test_kmeans_two_blobs_exact():
    rng = np.random.default_rng(1)
    a = rng.normal(0.0, 0.1, size=(40, 2))
    b = rng.normal(8.0, 0.1, size=(40, 2))
    pts = np.vstack([a, b])
    truth = np.repeat([0, 1], 40)
    _, labels = kmeans_pp(pts, 2, seed=1)
    assert adjusted_rand_index(labels, truth) == 1.0


def test_kmeans_objective_monotone_under_lloyd():
    # Lloyd from k-means++ seeding: objective never increases step to step
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((200, 2))
    prev = None
    for iters in range(1, 8):
        centers, labels = kmeans_pp(pts, 5, seed=7, max_iter=iters)
        obj = kmeans_objective(pts, centers, labels)
        if prev is not None:
            assert obj <= prev + 1e-9
        prev = obj


def test_kmeans_rejects_too_few_distinct_points():
    pts = np.zeros((5, 2))
    pts[0] = [1.0, 0.0]
    with pytest.raises(ValidationError, match="distinct"):
        kmeans_pp(pts, 3, seed=0)


def test_kmeans_duplicate_heavy_input_still_seeds():
    pts = np.array([[0.0, 0.0]] * 50 + [[5.0, 5.0]] * 50 + [[9.0, 0.0]])
    centers, labels = kmeans_pp(pts, 3, seed=3)
    assert len(np.unique(labels)) == 3


@pytest.mark.parametrize("kw,name", [({"n_init": 0}, "n_init"), ({"n_init": -2}, "n_init"),
                                     ({"max_iter": -1}, "max_iter")])
def test_kmeans_rejects_out_of_range_counts(kw, name):
    pts = np.random.default_rng(3).standard_normal((20, 2))
    with pytest.raises(ValidationError, match=name):
        kmeans_pp(pts, 3, seed=0, **kw)


def test_kmeans_zero_iterations_keeps_the_seeding():
    pts = np.random.default_rng(4).standard_normal((50, 2))
    assert_kmeans_matches_reference(pts, 4, lambda: np.random.default_rng(4), max_iter=0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_distances_add_coordinates_as_einsum(dim):
    # every k-means distance must equal the reference's einsum sums bitwise;
    # in D=3 einsum adds (0 + 2) + 1, and the in-order (0 + 1) + 2 differs
    rng = np.random.default_rng(60 + dim)
    points = rng.standard_normal((3000, dim)) * 10.0 ** rng.uniform(-2, 2, dim)
    centers = rng.standard_normal((30, dim))
    want = ref_sq_dists(points, centers)
    scratch = np.empty((2, 7 * 30 + 5))
    got = np.empty_like(want)
    for start, stop, d2 in initialization._sq_dist_blocks(points, centers, scratch):
        got[start:stop] = d2
    np.testing.assert_array_equal(got, want)
    # one set of centers per point, as the group passes use them
    pick = rng.integers(0, 30, (3000, 4))
    for start, stop, d2 in initialization._sq_dist_blocks(points, centers[pick], scratch):
        got[start:stop, :4] = d2
    np.testing.assert_array_equal(got[:, :4], np.take_along_axis(want, pick, axis=1))
    diff = points - centers[pick[:, 0]]
    np.testing.assert_array_equal(initialization._sq_norms(diff),
                                  np.einsum("nd,nd->n", diff, diff))


def _kmeans_inputs(dim):
    rng = np.random.default_rng(20 + dim)
    blobs = rng.standard_normal((6, dim)) * 8.0
    yield rng.standard_normal((700, dim)) * 3.0, 9
    yield blobs[rng.integers(0, 6, 900)] + 0.4 * rng.standard_normal((900, dim)), 6
    # duplicate-heavy: 600 points on at most 12 sites
    yield rng.integers(-3, 4, (12, dim)).astype(float)[rng.integers(0, 12, 600)], 5


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_init", [1, 3])
def test_kmeans_matches_reference_loop(dim, n_init):
    for j, (points, K) in enumerate(_kmeans_inputs(dim)):
        assert_kmeans_matches_reference(
            points, K, lambda: np.random.default_rng(100 * dim + j), n_init=n_init)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kmeans_empty_cell_reseed_matches_reference(dim):
    # a 1-D set on which Lloyd empties a cell under this seed, padded with
    # zero coordinates so every dimension sees the same distances
    xs = np.array([10.0, 11.0, 5.0, 10.0, 0.0, 4.0, 2.0])
    points = np.zeros((len(xs), dim))
    points[:, 0] = xs
    reseeds = assert_kmeans_matches_reference(points, 3, lambda: substream(8, rngmod.INIT))
    assert reseeds, "the scene no longer exercises the empty-cell reseed"


@pytest.mark.parametrize("dim", [2, 3])
def test_init_state_matches_reference_loop(dim):
    # a criterion-3 scene
    hyper = diag_hyper(dim, sigma2_mu_H=25.0, sigma2_V=0.04)
    _, obs, _ = separated_mixture_scene(K=3, L=30, N=3000, dim=dim, seed=0, separation=5.0,
                                        hyper=hyper,
                                        candidates=make_transform_candidates(dim, hyper))
    feats = np.random.default_rng(dim).standard_normal((len(obs), 1))
    for o in (obs, Observations(obs.positions, obs.velocities, feats)):
        new, ref = init_state(o, 3, 30, hyper, seed=0), ref_init_state(o, 3, 30, hyper, seed=0)
        for field in ("mu_B", "Sigma_B", "vel", "Sigma_V", "pi_B", "mu_H", "Sigma_H",
                      "rot", "trans", "pi_H", "z_B", "z_H", "feat"):
            np.testing.assert_array_equal(getattr(new, field), getattr(ref, field),
                                          err_msg=field)
        assert new.rng == ref.rng


def test_kmeans_peak_memory_below_one_difference_tensor():
    N, K, D = 20_000, 100, 2
    points = np.random.default_rng(0).standard_normal((N, D))
    tracemalloc.start()
    try:
        kmeans_pp(points, K, seed=0, max_iter=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < N * K * D * 8


# -- bounded Lloyd passes -------------------------------------------------------

def _on_diagonal(xs, dim):
    """Integer points on a line, copied onto every axis: each coordinate adds
    the same term, so a tie on the line stays an exact tie in every D."""
    return np.repeat(np.asarray(xs, dtype=float)[:, None], dim, axis=1)


# (points, K, generator seed): sets on which Lloyd, after its first pass,
# finds a point exactly midway between two centers
_TIE_SETS = (
    ([0, 9, 5, 6, 7, 3, 11, 0, 3, 4], 3, 5),
    ([7, 4, 1, 8, 4, 10], 3, 14),
    ([0, 2, 7, 10, 4, 7], 2, 81),
    ([11, 4, 11, 8, 3, 8, 6, 5, 1, 5], 2, 151),
    # two groups of centers: the bounded passes meet ties across groups
    ([17, 17, 10, 32, 9, 27, 4, 12, 12, 17, 11, 22, 17, 33, 37, 8, 36, 36, 34, 12, 10,
      31, 26, 20, 36, 13, 16, 22, 18, 19, 26], 15, 202),
)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kmeans_exact_ties_match_reference(dim, monkeypatch):
    passes = []
    sq_dists = ref_sq_dists

    def recording(points, centers):
        d2 = sq_dists(points, centers)
        two = np.sort(d2, axis=1)[:, :2]
        passes.append(int(np.sum(two[:, 0] == two[:, -1])) if centers.shape[0] > 1 else 0)
        return d2

    monkeypatch.setitem(globals(), "ref_sq_dists", recording)
    for xs, K, seed in _TIE_SETS:
        passes.clear()
        assert_kmeans_matches_reference(_on_diagonal(xs, dim), K,
                                        lambda: np.random.default_rng(seed))
        assert sum(passes[1:]), f"{xs} no longer meets a tie after the first pass"


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kmeans_duplicate_heavy_matches_reference(dim):
    rng = np.random.default_rng(30 + dim)
    sites = rng.integers(-4, 5, (3, dim)).astype(float)
    # 97% of the points on three sites, more centers than heavy sites
    spread = 10 + 5 * np.arange(12)[:, None] + rng.integers(-2, 3, (12, dim))
    points = np.vstack([sites[rng.integers(0, 3, 400)], spread.astype(float)])
    for K in (3, 6, 9):
        assert_kmeans_matches_reference(points, K, lambda: np.random.default_rng(K),
                                        n_init=2)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kmeans_far_reseed_matches_reference(dim):
    # Lloyd empties a cell under this seed, and the reseed moves its center
    # by 29, half the width of the set, past every bound the points held
    xs = [40, 59, 37, 36, 41, 17, 41, 12, 2, 20]
    reseeds = assert_kmeans_matches_reference(_on_diagonal(xs, dim), 4,
                                              lambda: substream(9413, rngmod.INIT))
    assert reseeds, "the scene no longer exercises the empty-cell reseed"


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kmeans_one_center_and_one_per_point_match_reference(dim):
    points = np.random.default_rng(40 + dim).standard_normal((30, dim))
    for K in (1, 30):
        assert_kmeans_matches_reference(points, K, lambda: np.random.default_rng(K),
                                        n_init=2)


def test_kmeans_bounds_skip_most_rows(monkeypatch):
    # scale-workload size: N = 5000 points, K = 100 centers; plain Lloyd
    # would recompute all N rows on every pass after the first
    _, obs, _ = separated_mixture_scene(K=3, L=100, N=5000, dim=2, seed=0, separation=5.0)
    rows, passes = [], []
    nearest, cell_means = initialization._nearest_two, initialization._cell_means

    def counting_nearest(points, centers, scratch):
        rows.append(len(points))
        return nearest(points, centers, scratch)

    def counting_means(*args):
        passes.append(1)
        return cell_means(*args)

    monkeypatch.setattr(initialization, "_nearest_two", counting_nearest)
    monkeypatch.setattr(initialization, "_cell_means", counting_means)
    kmeans_pp(obs.positions, 100, seed=0)
    assert rows[0] == 5000 and len(passes) > 5
    assert sum(rows[1:]) < 0.5 * len(passes) * 5000


@pytest.mark.parametrize("dim,K,N", [(2, 100, 5000), (3, 30, 3000)])
def test_kmeans_matches_reference_at_workload_size(dim, K, N):
    # the scale workload's particle init, and a criterion-3-size one in D=3:
    # the sizes at which the center groups hold several centers each
    _, obs, _ = separated_mixture_scene(K=3, L=K, N=N, dim=dim, seed=0, separation=5.0)
    assert_kmeans_matches_reference(obs.positions, K, lambda: substream(0, rngmod.INIT),
                                    n_init=4)


def test_kmeans_group_bounds_skip_most_distances(monkeypatch):
    # the scene of test_kmeans_bounds_skip_most_rows; every point-center
    # distance after the first pass counts, a group table's padding included
    _, obs, _ = separated_mixture_scene(K=3, L=100, N=5000, dim=2, seed=0, separation=5.0)
    entries, passes = [], []
    blocks, norms = initialization._sq_dist_blocks, initialization._sq_norms
    cell_means = initialization._cell_means

    def counting_blocks(points, centers, scratch):
        if points is not centers:  # center-to-center gaps are not counted
            entries.append(len(points) * centers.shape[-2])
        return blocks(points, centers, scratch)

    def counting_norms(diff):
        entries.append(len(diff))
        return norms(diff)

    def counting_means(*args):
        passes.append(1)
        return cell_means(*args)

    monkeypatch.setattr(initialization, "_sq_dist_blocks", counting_blocks)
    monkeypatch.setattr(initialization, "_sq_norms", counting_norms)
    monkeypatch.setattr(initialization, "_cell_means", counting_means)
    kmeans_pp(obs.positions, 100, seed=0)
    assert entries[0] == 5000 * 100 and len(passes) > 5
    assert sum(entries[1:]) < 0.05 * len(passes) * 5000 * 100


# -- plain and bounded Lloyd passes ----------------------------------------------

def _dims(test):
    return lambda mp: [test(dim) for dim in (1, 2, 3)]


# the reference-equality tests above, whose inputs all lie below
# _PLAIN_LLOYD_ENTRIES, so by size alone they only take plain passes
_REFERENCE_CASES = {
    "reference_loop": lambda mp: [test_kmeans_matches_reference_loop(dim, n_init)
                                  for dim in (1, 2, 3) for n_init in (1, 3)],
    "zero_iterations": lambda mp: test_kmeans_zero_iterations_keeps_the_seeding(),
    "empty_cell_reseed": _dims(test_kmeans_empty_cell_reseed_matches_reference),
    "exact_ties": lambda mp: [test_kmeans_exact_ties_match_reference(dim, mp)
                              for dim in (1, 2, 3)],
    "duplicate_heavy": _dims(test_kmeans_duplicate_heavy_matches_reference),
    "far_reseed": _dims(test_kmeans_far_reseed_matches_reference),
    "one_center_and_one_per_point": _dims(
        test_kmeans_one_center_and_one_per_point_match_reference),
}


@pytest.mark.parametrize("path", ["plain", "bounded"])
@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_kmeans_reference_cases_through_each_path(case, path, monkeypatch):
    # every problem, whatever its size, takes plain or bounded passes
    limit = math.inf if path == "plain" else 0
    monkeypatch.setattr(initialization, "_PLAIN_LLOYD_ENTRIES", limit)
    _REFERENCE_CASES[case](monkeypatch)


def _count_calls(monkeypatch, *names):
    """Count the calls of the named ``initialization`` functions."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _f=getattr(initialization, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(initialization, name, counting)
    return calls


@pytest.mark.parametrize("extra,plain", [(0, True), (1, False)])
def test_kmeans_size_rule_at_the_crossover(extra, plain, monkeypatch):
    # N * K equal to the crossover takes plain passes, one point more the bounds
    K = 16
    N = initialization._PLAIN_LLOYD_ENTRIES // K + extra
    rng = np.random.default_rng(7)
    points = 4.0 * rng.standard_normal((8, 2))[rng.integers(0, 8, N)] + rng.standard_normal((N, 2))
    calls = _count_calls(monkeypatch, "_plain_lloyd", "_half_gaps")
    assert_kmeans_matches_reference(points, K, lambda: np.random.default_rng(70), n_init=2)
    assert calls["_plain_lloyd"] == (2 if plain else 0)
    assert (calls["_half_gaps"] > 0) != plain


def _track_frame():
    # frame 0 of a scene like the bench track workload's: a disk of 70 dots
    # over 330 background dots, of which the disk hides some
    spec = SceneSpec(
        bodies=(Body(kind="disk", center=(0.7, 0.7), size=0.4, num_dots=70,
                     velocity=(0.06, 0.08), omega=0.0),),
        extent=((0.0, 2.0), (0.0, 1.4)), background_dots=330, flicker_prob=0.1,
        frames=1, velocity_noise=0.004, occlude_background=True)
    obs = make_rigid_scene(spec, 5)[0][0]
    assert 250 <= len(obs) <= 400
    return obs


def test_init_state_matches_reference_at_track_size():
    obs, hyper = _track_frame(), diag_hyper(2, sigma2_V=0.002)
    new, ref = init_state(obs, 3, 40, hyper, seed=5), ref_init_state(obs, 3, 40, hyper, seed=5)
    for field in ("mu_B", "Sigma_B", "vel", "Sigma_V", "pi_B", "mu_H", "Sigma_H",
                  "rot", "trans", "pi_H", "z_B", "z_H"):
        np.testing.assert_array_equal(getattr(new, field), getattr(ref, field), err_msg=field)
    assert new.rng == ref.rng


def test_flow_split_kmeans_matches_reference_at_track_size():
    # the speed groups, called as flow_split_proposal calls them
    state = init_state(_track_frame(), 3, 40, diag_hyper(2, sigma2_V=0.002), seed=5)
    speeds = np.linalg.norm(state.vel, axis=1)
    assert_kmeans_matches_reference(speeds[:, None], 2, lambda: substream(0, rngmod.INIT),
                                    n_init=4)


def test_kmeans_one_block_problems_skip_the_bounds(monkeypatch):
    # particles (n_init 4) and clusters (n_init 8) of a track-size frame
    calls = _count_calls(monkeypatch, "_plain_lloyd", "_reassign", "_half_gaps")
    init_state(_track_frame(), 3, 40, diag_hyper(2, sigma2_V=0.002), seed=5)
    assert calls == {"_plain_lloyd": 12, "_reassign": 0, "_half_gaps": 0}


# -- kabsch_align -------------------------------------------------------------

def test_kabsch_identity_on_equal_sets():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((10, 2))
    R, t = kabsch_align(pts, pts)
    np.testing.assert_allclose(R, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(t, np.zeros(2), atol=1e-12)


def test_kabsch_pure_translation():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((7, 3))
    c = np.array([2.0, -1.0, 0.5])
    R, t = kabsch_align(pts, pts + c)
    np.testing.assert_allclose(R, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(t, c, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_kabsch_recovers_random_rigid_transform(dim):
    rng = np.random.default_rng(6)
    for trial in range(10):
        if dim == 2:
            R_true = rotation_2d(rng.uniform(-math.pi, math.pi))
        else:
            from mattertrack.distributions import rotation_from_axis_angle

            axis = rng.standard_normal(3)
            R_true = rotation_from_axis_angle(axis, rng.uniform(-math.pi, math.pi))
        t_true = rng.standard_normal(dim)
        src = rng.standard_normal((10, dim))
        dst = src @ R_true.T + t_true
        R, t = kabsch_align(src, dst)
        assert np.abs(R - R_true).max() < 1e-9
        assert np.abs(t - t_true).max() < 1e-9
        resid = dst - (src @ R.T + t)
        assert np.linalg.norm(resid) < 1e-9
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_kabsch_empty_errors_and_degenerate_falls_back():
    with pytest.raises(ValidationError):
        kabsch_align(np.zeros((0, 2)), np.zeros((0, 2)))
    # single point: rank-0 cross-covariance -> identity + mean shift
    R, t = kabsch_align(np.array([[1.0, 2.0]]), np.array([[4.0, 6.0]]))
    np.testing.assert_allclose(R, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(t, [3.0, 4.0], atol=1e-15)


def test_kabsch_beats_candidate_enumeration():
    # optimality spot check against a fine grid of rotation angles
    rng = np.random.default_rng(7)
    src = rng.standard_normal((20, 2))
    dst = src @ rotation_2d(0.4).T + np.array([0.3, -0.2])
    dst += 0.05 * rng.standard_normal(src.shape)
    R, t = kabsch_align(src, dst)
    best = np.sum((dst - (src @ R.T + t)) ** 2)
    for theta in np.linspace(-math.pi, math.pi, 721):
        Rg = rotation_2d(theta)
        tg = dst.mean(axis=0) - Rg @ src.mean(axis=0)
        loss = np.sum((dst - (src @ Rg.T + tg)) ** 2)
        assert best <= loss + 1e-9


# -- init_state ----------------------------------------------------------------

def test_init_state_constant_velocity_copied_to_particles():
    rng = np.random.default_rng(8)
    pos = rng.standard_normal((60, 2))
    v0 = np.array([0.7, -0.2])
    obs = Observations(pos, np.tile(v0, (60, 1)))
    state = init_state(obs, K=2, L=6, hyper=diag_hyper(2), seed=0)
    np.testing.assert_allclose(state.vel, np.tile(v0, (6, 1)), atol=1e-12)


def test_init_state_weights_are_exact_counts():
    rng = np.random.default_rng(9)
    obs = Observations(rng.standard_normal((50, 2)), rng.standard_normal((50, 2)) * 0.01)
    state = init_state(obs, K=2, L=5, hyper=diag_hyper(2), seed=1)
    counts = np.bincount(state.z_B, minlength=5)
    np.testing.assert_allclose(state.pi_B, counts / 50, atol=1e-15)
    counts_h = np.bincount(state.z_H, minlength=2)
    np.testing.assert_allclose(state.pi_H, counts_h / 5, atol=1e-15)
    state.validate()


def test_init_state_recovers_separated_scene_before_sweeps():
    hyper = diag_hyper(2)
    _, obs, truth = separated_mixture_scene(K=3, L=18, N=900, dim=2, seed=10,
                                            separation=8.0, hyper=hyper)
    state = init_state(obs, K=3, L=18, hyper=hyper, seed=2)
    ari = adjusted_rand_index(point_cluster_labels(state), truth)
    assert ari >= 0.8


def test_init_state_singleton_particles_use_prior_covariance():
    hyper = diag_hyper(2)
    pos = np.array([[0.0, 0.0], [10.0, 10.0], [20.0, 0.0]])
    obs = Observations(pos, np.zeros((3, 2)))
    state = init_state(obs, K=1, L=3, hyper=hyper, seed=3)
    expected = inverse_wishart_mean(hyper.Psi_B, hyper.nu_B)
    for ell in range(3):
        np.testing.assert_allclose(state.Sigma_B[ell], expected, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_init_state_cells_of_at_most_d_members_use_prior_covariance(dim):
    """A cell of m <= D members has a singular sample covariance, which
    ``chol_spd``'s jitter would factor; it gets the prior mean instead, so
    the state passes ``validate()``."""
    hyper = diag_hyper(dim)
    rng = np.random.default_rng(dim)
    pos = np.vstack([rng.standard_normal((40, dim)),
                     50.0 + 0.1 * rng.standard_normal((dim, dim))])
    obs = Observations(pos, 0.1 * rng.standard_normal((40 + dim, dim)))
    state = init_state(obs, K=1, L=2, hyper=hyper, seed=5)
    small = state.z_B[-1]
    assert np.bincount(state.z_B, minlength=2)[small] == dim
    np.testing.assert_array_equal(state.Sigma_B[small],
                                  inverse_wishart_mean(hyper.Psi_B, hyper.nu_B))
    np.testing.assert_array_equal(state.Sigma_V[small],
                                  inverse_wishart_mean(hyper.Psi_V, hyper.nu_V))
    # one cluster of two particle centers
    np.testing.assert_array_equal(state.Sigma_H[0],
                                  inverse_wishart_mean(hyper.Psi_H, hyper.nu_H))
    big = obs.positions[state.z_B == 1 - small]
    np.testing.assert_allclose(state.Sigma_B[1 - small], np.cov(big.T), rtol=1e-12)
    state.validate()


def test_spd_or_rejects_a_rank_one_matrix_that_jitter_factors():
    d = np.array([0.3, -0.2])
    cov = np.outer(d, d)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov)
    chol_spd(cov)   # factored after its jitter retry
    fallback = 0.5 * np.eye(2)
    got = _spd_or(cov, fallback)
    np.testing.assert_array_equal(got, fallback)
    assert got is not fallback
    well = np.array([[2.0, 0.5], [0.5, 1.0]])
    np.testing.assert_array_equal(_spd_or(well, fallback), well)


def test_init_state_features_averaged():
    rng = np.random.default_rng(11)
    pos = np.vstack([rng.normal(0, 0.1, (20, 2)), rng.normal(9, 0.1, (20, 2))])
    feat = np.vstack([np.full((20, 3), 2.0), np.full((20, 3), -1.0)])
    obs = Observations(pos, np.zeros((40, 2)), feat)
    state = init_state(obs, K=2, L=2, hyper=diag_hyper(2), seed=4)
    assert state.feat is not None
    vals = sorted(state.feat[:, 0])
    np.testing.assert_allclose(vals, [-1.0, 2.0], atol=1e-12)


# -- data_dependent_hyperparams --------------------------------------------------

def test_hyper_median_position_symmetric_set_is_zero():
    pts = np.array([[1.0, 2.0], [-1.0, -2.0], [3.0, -4.0], [-3.0, 4.0]])
    obs = Observations(pts, np.zeros((4, 2)))
    state = init_state(obs, K=1, L=2, hyper=diag_hyper(2), seed=5)
    out = data_dependent_hyperparams(obs, state, base=diag_hyper(2))
    np.testing.assert_allclose(out.mu_H_prior, np.zeros(2), atol=1e-15)


def test_hyper_uniform_weights_give_floor_of_n_over_l():
    # 4 particles x 10 points each: nu_B = floor(N/L) = 10
    rng = np.random.default_rng(12)
    centers = np.array([[0, 0], [10, 0], [0, 10], [10, 10]], dtype=float)
    pos = np.vstack([c + rng.normal(0, 0.2, (10, 2)) for c in centers])
    obs = Observations(pos, np.zeros((40, 2)))
    state = init_state(obs, K=2, L=4, hyper=diag_hyper(2), seed=6)
    assert np.bincount(state.z_B, minlength=4).tolist() == [10, 10, 10, 10]
    out = data_dependent_hyperparams(obs, state, base=diag_hyper(2))
    assert out.nu_B == 10.0
    assert out.nu_V == 10.0
    # cluster side: floor(median(pi_H * N)) = floor(0.5 * 40) = 20
    assert out.nu_H == 20.0


def test_hyper_psi_prior_mean_equals_trace_over_d_when_constant():
    # the IW prior mean Psi / (nu - D - 1) sits exactly at the median
    # covariance length scale trace(Sigma0)/D
    sigma = np.array([[0.8, 0.1], [0.1, 0.4]])
    base = diag_hyper(2)
    from conftest import make_state

    eye = np.eye(2)
    state = make_state(
        mu_B=np.zeros((3, 2)), Sigma_B=[sigma] * 3, vel=np.zeros((3, 2)),
        Sigma_V=[sigma] * 3, pi_B=np.full(3, 1 / 3), mu_H=[[0.0, 0.0]],
        Sigma_H=[sigma], rot=[eye], trans=[[0.0, 0.0]], pi_H=[1.0],
        z_B=[0, 1, 2], z_H=[0, 0, 0])
    obs = Observations(np.zeros((3, 2)), np.zeros((3, 2)))
    out = data_dependent_hyperparams(obs, state, base=base)
    scale = np.trace(sigma) / 2
    np.testing.assert_allclose(inverse_wishart_mean(out.Psi_B, out.nu_B),
                               scale * np.eye(2), atol=1e-15)
    np.testing.assert_allclose(inverse_wishart_mean(out.Psi_H, out.nu_H),
                               scale * np.eye(2), atol=1e-15)
    np.testing.assert_allclose(inverse_wishart_mean(out.Psi_V, out.nu_V),
                               scale * np.eye(2), atol=1e-15)


def test_hyper_nu_clamped_to_dim_plus_two():
    obs = Observations(np.random.default_rng(13).standard_normal((4, 2)),
                       np.zeros((4, 2)))
    state = init_state(obs, K=2, L=4, hyper=diag_hyper(2), seed=7)
    out = data_dependent_hyperparams(obs, state, base=diag_hyper(2))
    # floor(median(1/4 * 4)) = 1 clamps up to D + 2
    assert out.nu_B == 4.0
