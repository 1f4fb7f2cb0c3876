"""Forward/Gibbs consistency smoke checks (the full-length run lives in the
acceptance suite)."""
import numpy as np
import pytest

from mattertrack import geweke
from mattertrack import rng as rngmod
from mattertrack.distributions import make_transform_candidates
from mattertrack.geweke import (
    GewekeReport,
    GewekeStat,
    _collect,
    default_check_hyper,
    run_geweke,
)
from mattertrack.model import sample_forward
from mattertrack.rng import substream
from mattertrack.types import ValidationError


def test_geweke_smoke_passes():
    hyper = default_check_hyper(2)
    report = run_geweke(hyper, K=2, L=4, N=16, iterations=1500, seed=0,
                        sweeps_per_iter=2)
    assert report.max_abs_z < 5.0
    assert len(report.stats) == 2 * 4 * 2 + 4
    assert "max |z|" in report.summary()


def test_geweke_detects_broken_kernel():
    # sanity: biasing the velocity observations must blow the z-scores up
    import mattertrack.geweke as gw

    orig = gw.resample_observations

    def biased(state, hyper, rng):
        obs = orig(state, hyper, rng)
        return type(obs)(obs.positions, obs.velocities + 0.4)

    gw.resample_observations = biased
    try:
        hyper = default_check_hyper(2)
        report = run_geweke(hyper, K=2, L=4, N=16, iterations=800, seed=1,
                            sweeps_per_iter=2)
    finally:
        gw.resample_observations = orig
    assert report.max_abs_z > 6.0


def test_geweke_rejects_outliers_and_short_runs():
    hyper = default_check_hyper(2)
    with pytest.raises(ValidationError):
        run_geweke(hyper.replace(p_outlier=0.2), K=1, L=2, N=8,
                   iterations=500, seed=0)
    with pytest.raises(ValidationError):
        run_geweke(hyper, K=1, L=2, N=8, iterations=50, seed=0)


def test_geweke_rejects_fewer_than_one_sweep_per_iteration():
    # a zero or negative count used to run one sweep per iteration silently
    hyper = default_check_hyper(2)
    for sweeps in (0, -1):
        with pytest.raises(ValidationError, match="sweeps_per_iter"):
            run_geweke(hyper, K=1, L=2, N=8, iterations=100, seed=0,
                       sweeps_per_iter=sweeps)


def test_geweke_validates_its_hyperparameters_once(monkeypatch):
    # hyperparameters check themselves when built, and the run's 101 forward
    # draws build none
    from mattertrack.types import HyperParams

    calls = []
    post_init = HyperParams.__post_init__
    monkeypatch.setattr(HyperParams, "__post_init__",
                        lambda self: calls.append(self) or post_init(self))
    run_geweke(default_check_hyper(2), K=1, L=2, N=8, iterations=100, seed=0)
    assert len(calls) == 1


def test_geweke_rejects_bad_sizes():
    hyper = default_check_hyper(2)
    with pytest.raises(ValidationError, match="at least 1"):
        run_geweke(hyper, K=0, L=2, N=8, iterations=100, seed=0)
    with pytest.raises(ValidationError, match="L >= K"):
        run_geweke(hyper, K=3, L=2, N=8, iterations=100, seed=0)


@pytest.mark.parametrize("dim", [2, 3])
def test_forward_half_collects_what_sample_forward_draws(dim):
    # the forward half draws latents only and stops before the points; its
    # means equal, bit for bit, those of whole draws on the same substreams
    hyper = default_check_hyper(dim)
    K, L, N, iterations, seed = 2, 4, 16, 100, 7
    report = run_geweke(hyper, K=K, L=L, N=N, iterations=iterations, seed=seed)
    cands = make_transform_candidates(dim, hyper)
    forward = np.array([
        _collect(sample_forward(hyper, K, L, N, substream(seed, rngmod.FORWARD, i), cands)[0])
        for i in range(iterations)])
    # column by column, as the report takes them (a mean over axis 0 sums in
    # another order)
    assert [s.forward_mean for s in report.stats] == [float(c.mean()) for c in forward.T]


@pytest.mark.parametrize("dim", [2, 3])
def test_forward_half_is_the_same_across_chunk_boundaries(dim, monkeypatch):
    # chunks of 30 draws at L=4, N=16 (30 * 64 entries): 100 iterations cross
    # three chunk boundaries and end on a partial chunk, and the forward means
    # equal those of whole draws bit for bit
    monkeypatch.setattr(geweke, "_FORWARD_CHUNK_ENTRIES", 30 * 4 * 16 + 63)
    hyper = default_check_hyper(dim)
    K, L, N, iterations, seed = 2, 4, 16, 100, 11
    report = run_geweke(hyper, K=K, L=L, N=N, iterations=iterations, seed=seed)
    cands = make_transform_candidates(dim, hyper)
    forward = np.array([
        _collect(sample_forward(hyper, K, L, N, substream(seed, rngmod.FORWARD, i), cands)[0])
        for i in range(iterations)])
    assert [s.forward_mean for s in report.stats] == [float(c.mean()) for c in forward.T]


@pytest.mark.parametrize("dim", [2, 3])
def test_run_geweke_makes_no_numpy_einsum_call(dim, monkeypatch):
    hyper = default_check_hyper(dim)

    def refuse(*operands, **kwargs):
        raise AssertionError("numpy.einsum called; the package calls distributions._einsum")

    with monkeypatch.context() as patch:
        patch.setattr(np, "einsum", refuse)
        report = run_geweke(hyper, K=2, L=4, N=16, iterations=100, seed=3)
    assert report.iterations == 100


def report_with_z(zs):
    return GewekeReport(tuple(GewekeStat(f"s{i}", 0.0, 0.0, z) for i, z in enumerate(zs)),
                        iterations=100)


@pytest.mark.parametrize("zs", [(1.0, float("nan")), (float("nan"), 1.0),
                                (0.5, float("nan"), 1.5)])
def test_a_nan_z_fails_wherever_it_stands(zs):
    # Python's max skipped a NaN that was not first, so (1.0, nan) passed
    report = report_with_z(zs)
    assert np.isnan(report.max_abs_z)
    assert not report.passed()
    assert not report.passed(threshold=np.inf)
    bad = [f"s{i}" for i, z in enumerate(zs) if np.isnan(z)]
    assert report.nonfinite == tuple(bad)
    assert f"non-finite z: {bad[0]}" in report.summary()


def test_an_infinite_z_fails_and_is_named():
    report = report_with_z((1.0, -np.inf))
    assert report.max_abs_z == np.inf and not report.passed()
    assert report.nonfinite == ("s1",)
    assert "non-finite z: s1" in report.summary()
    assert report_with_z((1.0, -2.0)).nonfinite == ()
    assert "non-finite" not in report_with_z((1.0, -2.0)).summary()
