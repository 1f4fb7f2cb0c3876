"""Forward/Gibbs consistency smoke checks (the full-length run lives in the
acceptance suite)."""
import numpy as np
import pytest

from mattertrack import rng as rngmod
from mattertrack.distributions import make_transform_candidates
from mattertrack.geweke import _collect, default_check_hyper, run_geweke
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
    # the 101 forward draws of the run skip the validation that
    # sample_forward does on every call
    from mattertrack.types import HyperParams

    calls = []
    validate = HyperParams.validate
    monkeypatch.setattr(HyperParams, "validate",
                        lambda self, dim: calls.append(dim) or validate(self, dim))
    run_geweke(default_check_hyper(2), K=1, L=2, N=8, iterations=100, seed=0)
    assert calls == [2]


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
