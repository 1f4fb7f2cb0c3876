"""Shared builders for hand-constructed model states, the reference
inverse-Wishart draw of the stacked kernels, and ``tools/rdk_heldout.py``
(criterion 6's scene construction) loaded as a module."""
from __future__ import annotations

import importlib.util
import os
import sys

import numpy as np
import pytest

from mattertrack.distributions import chol_spd, spd_inverse
from mattertrack.rng import RngState
from mattertrack.types import HyperParams, ModelState, Observations

HELDOUT_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "tools", "rdk_heldout.py")


@pytest.fixture(scope="session")
def heldout():
    """``tools/rdk_heldout.py``: criterion 6's hyperparameters, scenes, probes
    and judgments, which the criterion and the held-out tally share."""
    spec = importlib.util.spec_from_file_location("rdk_heldout", HELDOUT_TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def diag_hyper(dim=2, sigma2_mu_H=4.0, psi_h=1.0, psi_b=0.25, psi_v=0.04,
               sigma2_V=0.09, s2=0.5, kappa=4.0, theta_max=np.pi / 6,
               alpha=1.0, beta=1.0, **kw) -> HyperParams:
    """Hyperparameters with isotropic scale matrices (collapsed-instance friendly)."""
    eye = np.eye(dim)
    return HyperParams(
        alpha=alpha, beta=beta,
        mu_H_prior=np.zeros(dim), sigma2_mu_H=sigma2_mu_H,
        Psi_H=psi_h * eye, nu_H=dim + 3.0,
        Psi_B=psi_b * eye, nu_B=dim + 3.0,
        sigma2_V=sigma2_V, Psi_V=psi_v * eye, nu_V=dim + 3.0,
        s2=s2, kappa_vmf=kappa, theta_max=theta_max, **kw)


def make_state(mu_B, Sigma_B, vel, Sigma_V, pi_B, mu_H, Sigma_H, rot, trans,
               pi_H, z_B, z_H, seed=0, feat=None) -> ModelState:
    mu_B = np.atleast_2d(np.asarray(mu_B, dtype=float))
    dim = mu_B.shape[1]
    return ModelState(
        dim=dim,
        mu_B=mu_B,
        Sigma_B=np.asarray(Sigma_B, dtype=float),
        vel=np.atleast_2d(np.asarray(vel, dtype=float)),
        Sigma_V=np.asarray(Sigma_V, dtype=float),
        pi_B=np.asarray(pi_B, dtype=float),
        mu_H=np.atleast_2d(np.asarray(mu_H, dtype=float)),
        Sigma_H=np.asarray(Sigma_H, dtype=float),
        rot=np.asarray(rot, dtype=float),
        trans=np.atleast_2d(np.asarray(trans, dtype=float)),
        pi_H=np.asarray(pi_H, dtype=float),
        z_B=np.asarray(z_B, dtype=np.int64),
        z_H=np.asarray(z_H, dtype=np.int64),
        rng=RngState(seed),
        feat=feat,
    )


def single_particle_state(dim=2, mu_b=(0.0, 0.0), sigma_b=0.25, v=(0.0, 0.0),
                          sigma_v=0.04, mu_h=(0.0, 0.0), sigma_h=1.0,
                          rot=None, trans=(0.0, 0.0), z_B=(0,), seed=0) -> ModelState:
    eye = np.eye(dim)
    if rot is None:
        rot = eye
    return make_state(
        mu_B=[mu_b], Sigma_B=[sigma_b * eye], vel=[v], Sigma_V=[sigma_v * eye],
        pi_B=[1.0], mu_H=[mu_h], Sigma_H=[sigma_h * eye], rot=[rot],
        trans=[trans], pi_H=[1.0], z_B=list(z_B), z_H=[0], seed=seed)


def ref_iw_draws(posteriors, rng):
    """One IW(psi, nu) draw per (psi, nu) pair, Bartlett variates one scalar at
    a time in ``distributions.inverse_wishart_stack``'s order: every draw's
    chi-square diagonal (row i at nu - i), then every draw's strictly lower
    triangle row by row."""
    d = posteriors[0][0].shape[0]
    bartlett = [np.zeros((d, d)) for _ in posteriors]
    for a, (_, nu) in zip(bartlett, posteriors):
        for i in range(d):
            a[i, i] = np.sqrt(rng.chisquare(nu - i))
    for a in bartlett:
        for i, j in zip(*np.tril_indices(d, -1)):
            a[i, j] = rng.standard_normal()
    draws = []
    for a, (psi, _) in zip(bartlett, posteriors):
        c_inv = np.linalg.inv(chol_spd(spd_inverse(psi)) @ a)
        out = c_inv.T @ c_inv
        draws.append(0.5 * (out + out.T))
    return np.stack(draws)
