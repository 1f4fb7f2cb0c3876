"""Held-out tally of the random-dot same-object judgments of acceptance criterion 6.

Usage (from the repository root):

    python3 tools/rdk_heldout.py                    # this checkout's src/
    python3 tools/rdk_heldout.py --src OTHER/src    # another checkout's library

Criterion 6 (``tests/test_acceptance.py``) judges 20 unambiguous scenes on seeds
100-119 and 30 ambiguous ones on seeds 200-299 through this module's
``judge_unambiguous`` and ``judge_ambiguous`` (hyperparameters, motions,
flicker, probes, and ``track`` with the flow split).  The tool judges the
same scenes on other seeds, so that a change to the sampler can be read
against a base rate rather than against those 50 scenes alone:

  unambiguous  scene i of block b uses criterion 6's motion, flicker and probe
               kind i on seed b + i; the blocks are 1000, 2000 and 3000, 20
               scenes each;
  ambiguous    criterion 6's 10 directions times 3 repeats, direction i and
               repeat r on seed 4000 + 10 i + r.

It prints the unambiguous accuracy and the ambiguous same rate, each with its
Wilson 95% interval, the quartiles of the last-frame point ARI (inferred cluster of each
point against its body) over the unambiguous scenes, how many scenes hold a
tracked state that fails ``ModelState.validate``, and one line per
unambiguous miss with its cause.  Causes are tested in this order, and the
first that holds names the miss:

  invalid state        some tracked state of the scene fails ``validate()``;
  disk merged          the disk's majority cluster in the last frame holds at
                       least a quarter of the background points;
  background split     the background's largest cluster holds less than three
                       quarters of the background points;
  disk split           the disk's majority cluster holds less than three
                       quarters of the disk points;
  other                none of these.

The tally has no pass/fail bound.  The whole run takes about 12 s on a 2-vCPU
Xeon with one BLAS thread.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLOCKS = (1000, 2000, 3000)
AMBIGUOUS_BASE = 4000
K, L = 3, 40
MERGED_SHARE = 0.25   # of the background in the disk's cluster
WHOLE_SHARE = 0.75    # of a body in its own largest cluster


@dataclass(frozen=True)
class Judgment:
    seed: int
    kind: str            # "same", "diff" or "ambiguous"
    same: bool           # the tracker's answer
    invalid: bool
    ari: float
    disk_whole: float    # share of the disk points in the disk's majority cluster
    bg_whole: float      # share of the background in its largest cluster
    bg_in_disk: float    # share of the background in the disk's majority cluster

    @property
    def correct(self) -> bool:
        """The answer is right; asked of unambiguous scenes only."""
        return self.same == (self.kind == "same")

    def cause(self) -> str:
        if self.invalid:
            return "invalid state"
        if self.bg_in_disk >= MERGED_SHARE:
            return "disk merged with background"
        if self.bg_whole < WHOLE_SHARE:
            return "background split"
        if self.disk_whole < WHOLE_SHARE:
            return "disk split"
        return "other"


def hyper_and_candidates():
    from mattertrack.distributions import make_transform_candidates
    from mattertrack.types import HyperParams

    eye = np.eye(2)
    hyper = HyperParams(
        alpha=1.0, beta=1.0, mu_H_prior=np.zeros(2), sigma2_mu_H=4.0,
        Psi_H=eye, nu_H=5.0, Psi_B=0.25 * eye, nu_B=5.0,
        sigma2_V=0.002, Psi_V=0.04 * eye, nu_V=5.0,
        s2=0.01, kappa_vmf=8.0, theta_max=math.pi / 8)
    return hyper, make_transform_candidates(2, hyper, M_r=33, M_t=81)


def unambiguous_scene(i: int):
    """Criterion 6's unambiguous scene i: (spec, disk velocity, probe kind)."""
    from mattertrack.synth import Body, SceneSpec

    if i < 10:
        ang = 2 * math.pi * i / 10 + 0.3
        u, omega = np.array([0.1 * math.cos(ang), 0.1 * math.sin(ang)]), 0.0
    else:
        u, omega = np.zeros(2), [0.3, -0.35, 0.32, -0.3, 0.35][i % 5]
    spec = SceneSpec(
        bodies=(Body(kind="disk", center=(0.7, 0.7), size=0.4, num_dots=70,
                     velocity=tuple(u), omega=omega),),
        extent=((0.0, 2.0), (0.0, 1.4)),
        background_dots=330, flicker_prob=[0.0, 0.1, 0.2, 0.3][i % 4], frames=10,
        velocity_noise=0.004, occlude_background=True)
    return spec, u, "same" if i % 2 == 0 else "diff"


def _ambiguous_scene(i: int):
    """Criterion 6's ambiguous direction i: disk and surround share one motion."""
    from mattertrack.synth import Body, SceneSpec

    ang = 2 * math.pi * i / 10
    u = np.array([0.03 * math.cos(ang), 0.03 * math.sin(ang)])
    spec = SceneSpec(
        bodies=(
            Body(kind="disk", center=(0.9, 0.7), size=0.4, num_dots=70, velocity=tuple(u)),
            Body(kind="rect", center=(1.0, 0.7), size=(1.9, 1.3), num_dots=330,
                 velocity=tuple(u)),
        ),
        extent=((0.0, 2.0), (0.0, 1.4)),
        background_dots=0, flicker_prob=0.1, frames=10,
        velocity_noise=0.004, occlude_background=True)
    return spec, u


def _judge(spec, u, center0, kind: str, seed: int, hyper, cands) -> Judgment:
    from mattertrack.evaluation import adjusted_rand_index, point_cluster_labels
    from mattertrack.synth import flow_split_proposal, knn_same_object, make_rigid_scene
    from mattertrack.tracker import TrackConfig, track
    from mattertrack.types import ValidationError

    frames, labels = make_rigid_scene(spec, seed)
    states = track(frames, K, L, hyper, TrackConfig(init_sweeps=30), seed,
                   candidates=cands, init_proposal=flow_split_proposal)
    T = len(states)
    c = center0 + u * np.mean(range(T - max(1, math.ceil(T / 3)), T))
    if kind == "same":
        probes = c + [0.22, 0.0], c - [0.22, 0.0]
    elif kind == "diff":
        probes = c, np.array([1.75, 0.2]) if c[0] < 1.0 else np.array([0.25, 0.2])
    else:
        probes = c + [0.25, 0.0], c + [0.55, 0.0]
    same, _ = knn_same_object(states, *probes, k=5)

    invalid = False
    for state in states:
        try:
            state.validate()
        except ValidationError:
            invalid = True
            break

    pred, truth = point_cluster_labels(states[-1]), labels[-1]
    disk, background = pred[truth == 0], pred[truth != 0]
    disk_cluster = np.bincount(disk + 1).argmax() - 1   # outliers are -1

    def share(points, cluster) -> float:
        return float(np.mean(points == cluster)) if len(points) else 0.0

    return Judgment(
        seed=seed, kind=kind, same=bool(same), invalid=invalid,
        ari=adjusted_rand_index(pred, truth),
        disk_whole=share(disk, disk_cluster),
        bg_whole=max((share(background, v) for v in np.unique(background)), default=0.0),
        bg_in_disk=share(background, disk_cluster))


def judge_unambiguous(i: int, seed: int, hyper, cands) -> Judgment:
    spec, u, kind = unambiguous_scene(i)
    return _judge(spec, u, np.array([0.7, 0.7]), kind, seed, hyper, cands)


def judge_ambiguous(i: int, seed: int, hyper, cands) -> Judgment:
    spec, u = _ambiguous_scene(i)
    return _judge(spec, u, np.array([0.9, 0.7]), "ambiguous", seed, hyper, cands)


def wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval of a binomial proportion k / n."""
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


def tally(blocks=BLOCKS, scenes: int = 20, ambiguous: int = 30) -> list[str]:
    """Judge the held-out scenes and return the report lines."""
    hyper, cands = hyper_and_candidates()
    unamb = {b: [judge_unambiguous(i, b + i, hyper, cands) for i in range(scenes)]
             for b in blocks}
    amb = [judge_ambiguous(j // 3, AMBIGUOUS_BASE + 10 * (j // 3) + j % 3, hyper, cands)
           for j in range(ambiguous)]
    flat = [j for block in unamb.values() for j in block]
    n, correct = len(flat), sum(j.correct for j in flat)
    lo, hi = wilson_interval(correct, n)
    same = sum(j.same for j in amb)
    amb_lo, amb_hi = wilson_interval(same, len(amb))
    per_block = ", ".join(f"{b}: {sum(j.correct for j in js)}/{len(js)}"
                          for b, js in unamb.items())
    q1, q2, q3 = np.percentile([j.ari for j in flat], [25, 50, 75])
    lines = [
        f"unambiguous  {correct}/{n} correct ({correct / n:.0%}, Wilson 95% "
        f"[{lo:.3f}, {hi:.3f}]); by block {per_block}",
        f"ambiguous    same {same}/{len(amb)} ({same / len(amb):.0%}, Wilson 95% "
        f"[{amb_lo:.3f}, {amb_hi:.3f}])",
        f"point ARI    last frame, unambiguous quartiles {q1:.3f} / {q2:.3f} / {q3:.3f}",
        f"invalid      {sum(j.invalid for j in flat)}/{n} unambiguous and "
        f"{sum(j.invalid for j in amb)}/{len(amb)} ambiguous scenes hold a state "
        "that fails validate()",
    ]
    for j in flat:
        if not j.correct:
            lines.append(
                f"miss         seed {j.seed} ({j.kind}): {j.cause()} (background in the "
                f"disk's cluster {j.bg_in_disk:.0%}, in its largest {j.bg_whole:.0%}; "
                f"disk in its largest {j.disk_whole:.0%})")
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory that holds the mattertrack package to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import mattertrack

    print(f"mattertrack from {os.path.dirname(os.path.abspath(mattertrack.__file__))}")
    for line in tally():
        print(line, flush=True)


if __name__ == "__main__":
    main()
