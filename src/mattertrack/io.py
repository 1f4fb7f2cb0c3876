"""File formats: observations, ground-truth labels, state dumps, configs.

Observations and labels are newline-delimited JSON, one record per frame.
State dumps are newline-delimited JSON too, one self-contained record per
frame (format_version 1) carrying the hyperparameters and rng cursor so a
dump can resume tracking bit-identically.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from .gibbs import Block, Step
from .rng import RngState
from .tracker import TrackConfig
from .types import Assignments, HyperParams, ModelState, Observations, ValidationError

FORMAT_VERSION = 1


# --------------------------------------------------------------------------
# Observations and labels
# --------------------------------------------------------------------------

def write_observations(path: str, frames: list[Observations]) -> None:
    with open(path, "w") as fh:
        for t, obs in enumerate(frames):
            points = []
            for n in range(len(obs)):
                rec: dict[str, Any] = {"x": obs.positions[n].tolist(),
                                       "v": obs.velocities[n].tolist()}
                if obs.features is not None:
                    rec["f"] = obs.features[n].tolist()
                points.append(rec)
            fh.write(json.dumps({"t": t, "points": points}) + "\n")


def read_observations(path: str) -> list[Observations]:
    frames: list[Observations] = []
    dim: int | None = None
    fdim: int | None = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"line {lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(rec, dict) or "t" not in rec or "points" not in rec:
                raise ValidationError(f"line {lineno}: frame record needs 't' and 'points'")
            t = rec["t"]
            pts = rec["points"]
            positions, velocities, features = [], [], []
            has_f = None
            for i, p in enumerate(pts):
                if "x" not in p or "v" not in p:
                    raise ValidationError(f"line {lineno}: point {i} needs 'x' and 'v'")
                positions.append(p["x"])
                velocities.append(p["v"])
                here = "f" in p
                if has_f is None:
                    has_f = here
                elif has_f != here:
                    raise ValidationError(
                        f"frame {t}: features must be present on all points or none")
                if here:
                    features.append(p["f"])
            if not positions:
                if dim is None:
                    raise ValidationError(
                        f"frame {t}: empty first frame leaves the dimension unknown")
                pos = np.zeros((0, dim))
                velocities = np.zeros((0, dim))
            else:
                pos = np.asarray(positions, dtype=np.float64)
                if pos.ndim != 2:
                    raise ValidationError(f"frame {t}: inconsistent point dimensions")
            if dim is None:
                dim = pos.shape[1]
            elif pos.shape[1] != dim:
                raise ValidationError(
                    f"frame {t}: dimension {pos.shape[1]} differs from first frame ({dim})")
            feat = None
            if has_f:
                feat = np.asarray(features, dtype=np.float64)
                if fdim is None:
                    fdim = feat.shape[1]
                elif feat.shape[1] != fdim:
                    raise ValidationError(
                        f"frame {t}: feature dimension {feat.shape[1]} differs from first ({fdim})")
            try:
                frames.append(Observations(pos, np.asarray(velocities, dtype=np.float64), feat))
            except ValidationError as exc:
                raise ValidationError(f"frame {t}: {exc}") from exc
    return frames


def write_labels(path: str, labels: list[np.ndarray]) -> None:
    with open(path, "w") as fh:
        for t, lab in enumerate(labels):
            fh.write(json.dumps({"t": t, "labels": np.asarray(lab).astype(int).tolist()}) + "\n")


def read_labels(path: str) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"line {lineno}: malformed JSON ({exc.msg})") from exc
            if "labels" not in rec:
                raise ValidationError(f"line {lineno}: label record needs 'labels'")
            out.append(np.asarray(rec["labels"], dtype=np.int64))
    return out


# --------------------------------------------------------------------------
# Hyperparameters
# --------------------------------------------------------------------------

_HYPER_FIELDS = {f.name for f in dataclasses.fields(HyperParams)}


def hyper_to_dict(hyper: HyperParams) -> dict:
    out: dict[str, Any] = {}
    for f in dataclasses.fields(HyperParams):
        val = getattr(hyper, f.name)
        if isinstance(val, np.ndarray):
            out[f.name] = val.tolist()
        else:
            out[f.name] = val
    return out


def hyper_from_dict(d: dict, dim: int | None = None,
                    base: HyperParams | None = None) -> HyperParams:
    """Build hyperparameters from a config mapping.

    Scalar entries for the D-dependent fields broadcast: mu_H_prior to a
    constant vector, Psi_* to scalar * identity (requires ``dim``).  Unknown
    keys are a hard error.
    """
    unknown = set(d) - _HYPER_FIELDS
    if unknown:
        raise ValidationError(f"unknown hyperparameter keys: {sorted(unknown)}")
    kw: dict[str, Any] = {}
    for key, val in d.items():
        if key in ("mu_H_prior",) and np.isscalar(val):
            if dim is None:
                raise ValidationError("scalar mu_H_prior needs a known dimension")
            kw[key] = np.full(dim, float(val))
        elif key in ("Psi_H", "Psi_B", "Psi_V") and np.isscalar(val):
            if dim is None:
                raise ValidationError(f"scalar {key} needs a known dimension")
            kw[key] = float(val) * np.eye(dim)
        elif isinstance(val, list):
            kw[key] = np.asarray(val, dtype=np.float64)
        else:
            kw[key] = val
    if base is None:
        if dim is None:
            raise ValidationError("hyperparameters need a dimension or a base to fill defaults")
        base = HyperParams.default(dim)
    return base.replace(**kw)


# --------------------------------------------------------------------------
# Schedules and track configuration
# --------------------------------------------------------------------------

def schedule_items_from_json(raw) -> tuple:
    items = []
    for entry in raw:
        if isinstance(entry, str):
            items.append(Step(entry))
        elif isinstance(entry, list):
            if len(entry) != 2 or not isinstance(entry[0], str):
                raise ValidationError(f"schedule step list must be [name, repeat], got {entry!r}")
            items.append(Step(entry[0], int(entry[1])))
        elif isinstance(entry, dict):
            unknown = set(entry) - {"repeat", "steps"}
            if unknown:
                raise ValidationError(f"unknown schedule block keys: {sorted(unknown)}")
            items.append(Block(items=schedule_items_from_json(entry.get("steps", [])),
                               repeat=int(entry.get("repeat", 1))))
        else:
            raise ValidationError(f"bad schedule entry: {entry!r}")
    return tuple(items)


_TRACK_FIELDS = {f.name for f in dataclasses.fields(TrackConfig)}


def track_config_from_dict(d: dict) -> TrackConfig:
    unknown = set(d) - _TRACK_FIELDS
    if unknown:
        raise ValidationError(f"unknown track config keys: {sorted(unknown)}")
    kw = dict(d)
    raw = kw.get("per_frame_schedule")
    if raw is not None:
        if not isinstance(raw, dict) or set(raw) != {"steps"}:
            raise ValidationError(
                f'per_frame_schedule must be {{"steps": [...]}}, got {raw!r}; '
                "freeze flags belong in the track section")
        kw["per_frame_schedule"] = schedule_items_from_json(raw["steps"])
    return TrackConfig(**kw)


@dataclass(frozen=True)
class Config:
    """Parsed top-level configuration file."""

    hyper: dict | None = None
    track: dict | None = None
    candidates: dict | None = None

    def resolve_hyper(self, dim: int, base: HyperParams | None = None) -> HyperParams:
        if self.hyper is None:
            return base if base is not None else HyperParams.default(dim)
        return hyper_from_dict(self.hyper, dim=dim, base=base)

    def resolve_track(self) -> TrackConfig:
        return TrackConfig() if self.track is None else track_config_from_dict(self.track)

    def candidate_sizes(self) -> tuple[int | None, int | None]:
        if self.candidates is None:
            return None, None
        unknown = set(self.candidates) - {"M_r", "M_t"}
        if unknown:
            raise ValidationError(f"unknown candidates keys: {sorted(unknown)}")
        return self.candidates.get("M_r"), self.candidates.get("M_t")


def load_config(path: str) -> Config:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValidationError("config file must hold a JSON object")
    unknown = set(raw) - {"hyper", "track", "candidates"}
    if unknown:
        raise ValidationError(f"unknown config sections: {sorted(unknown)}")
    cfg = Config(hyper=raw.get("hyper"), track=raw.get("track"),
                 candidates=raw.get("candidates"))
    if cfg.hyper is not None:
        bad = set(cfg.hyper) - _HYPER_FIELDS
        if bad:
            raise ValidationError(f"unknown hyperparameter keys: {sorted(bad)}")
    cfg.resolve_track()
    cfg.candidate_sizes()
    return cfg


# --------------------------------------------------------------------------
# State dumps
# --------------------------------------------------------------------------

# (JSON key, ModelState field) of each per-particle and per-cluster record, in
# dump order; "f" is present only when the state carries feature means
_PARTICLE_KEYS = (("mu_B", "mu_B"), ("Sigma_B", "Sigma_B"), ("v", "vel"),
                  ("Sigma_V", "Sigma_V"), ("f", "feat"))
_CLUSTER_KEYS = (("mu_H", "mu_H"), ("Sigma_H", "Sigma_H"), ("R", "rot"), ("t", "trans"))


def _records(state: ModelState, table) -> list[dict]:
    cols = {key: getattr(state, field).tolist() for key, field in table
            if getattr(state, field) is not None}
    return [dict(zip(cols, row)) for row in zip(*cols.values())]


def _stacked(records: list[dict], table) -> dict[str, np.ndarray]:
    return {field: np.asarray([r[key] for r in records], dtype=np.float64)
            for key, field in table if key != "f" or (records and "f" in records[0])}


def state_to_dict(state: ModelState) -> dict:
    return {
        "dim": state.dim,
        "particles": _records(state, _PARTICLE_KEYS),
        "clusters": _records(state, _CLUSTER_KEYS),
        "pi_B": state.pi_B.tolist(),
        "pi_H": state.pi_H.tolist(),
        "z_B": state.z_B.tolist(),
        "z_H": state.z_H.tolist(),
        "rng": state.rng.to_dict(),
    }


def state_from_dict(d: dict) -> ModelState:
    return ModelState(
        dim=int(d["dim"]),
        **_stacked(d["particles"], _PARTICLE_KEYS),
        **_stacked(d["clusters"], _CLUSTER_KEYS),
        pi_B=np.asarray(d["pi_B"], dtype=np.float64),
        pi_H=np.asarray(d["pi_H"], dtype=np.float64),
        assignments=Assignments(np.asarray(d["z_B"], dtype=np.int64),
                                np.asarray(d["z_H"], dtype=np.int64)),
        rng=RngState.from_dict(d["rng"]),
    )


@dataclass(frozen=True)
class StateRecord:
    t: int
    state: ModelState
    hyper: HyperParams | None


def write_states(path: str, states: list[ModelState],
                 hyper: HyperParams | None = None, first_t: int = 0) -> None:
    with open(path, "w") as fh:
        for i, state in enumerate(states):
            rec = {
                "format_version": FORMAT_VERSION,
                "t": first_t + i,
                "hyper": None if hyper is None else hyper_to_dict(hyper),
                "state": state_to_dict(state),
            }
            fh.write(json.dumps(rec) + "\n")


def read_states(path: str) -> list[StateRecord]:
    out: list[StateRecord] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"line {lineno}: malformed JSON ({exc.msg})") from exc
            if rec.get("format_version") != FORMAT_VERSION:
                raise ValidationError(
                    f"line {lineno}: unsupported format_version {rec.get('format_version')!r}")
            hyper = None
            if rec.get("hyper") is not None:
                hyper = hyper_from_dict(rec["hyper"],
                                        dim=int(rec["state"]["dim"]))
            out.append(StateRecord(t=int(rec["t"]),
                                   state=state_from_dict(rec["state"]), hyper=hyper))
    return out
