"""File formats: observations, ground-truth labels, state dumps, configs.

Observations and labels are newline-delimited JSON, one record per frame.
State dumps are newline-delimited JSON too, one self-contained record per
frame (format_version 1) carrying the hyperparameters and rng cursor so a
dump can resume tracking bit-identically.  A config's schedule repeats and
blocks expand to plain step names at load time.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from .distributions import TransformCandidates, make_transform_candidates
from .rng import RngState
from .tracker import TrackConfig
from .types import HyperParams, ModelState, Observations, ValidationError, is_int, is_real

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


def _json_lines(path: str):
    """(line number, parsed record) of each non-blank line of a JSONL file."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"line {lineno}: malformed JSON ({exc.msg})") from exc


def read_observations(path: str) -> list[Observations]:
    frames: list[Observations] = []
    fdim: int | None = None
    for lineno, rec in _json_lines(path):
        if not isinstance(rec, dict) or "t" not in rec or not isinstance(rec.get("points"), list):
            raise ValidationError(f"line {lineno}: frame record needs 't' and a 'points' list")
        t = rec["t"]
        positions, velocities, features = [], [], []
        for i, p in enumerate(rec["points"]):
            if not isinstance(p, dict) or "x" not in p or "v" not in p:
                raise ValidationError(
                    f"line {lineno}: point {i} must be an object with 'x' and 'v'")
            positions.append(p["x"])
            velocities.append(p["v"])
            if "f" in p:
                features.append(p["f"])
        if features and len(features) != len(positions):
            raise ValidationError(f"frame {t}: features must be present on all points or none")
        if not positions:
            if not frames:
                raise ValidationError(
                    f"frame {t}: empty first frame leaves the dimension unknown")
            positions = velocities = np.zeros((0, frames[0].dim))
        try:
            obs = Observations(positions, velocities, features or None)
        except ValidationError as exc:
            raise ValidationError(f"frame {t}: {exc}") from exc
        if frames and obs.dim != frames[0].dim:
            raise ValidationError(
                f"frame {t}: dimension {obs.dim} differs from first frame ({frames[0].dim})")
        if features:
            if fdim is None:
                fdim = obs.features.shape[1]
            elif obs.features.shape[1] != fdim:
                raise ValidationError(f"frame {t}: feature dimension "
                                      f"{obs.features.shape[1]} differs from first ({fdim})")
        frames.append(obs)
    return frames


def write_labels(path: str, labels: list[np.ndarray]) -> None:
    with open(path, "w") as fh:
        for t, lab in enumerate(labels):
            fh.write(json.dumps({"t": t, "labels": np.asarray(lab).astype(int).tolist()}) + "\n")


def read_labels(path: str) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for lineno, rec in _json_lines(path):
        if not isinstance(rec, dict) or "labels" not in rec:
            raise ValidationError(f"line {lineno}: label record needs 'labels'")
        try:
            out.append(np.asarray(rec["labels"], dtype=np.int64))
        except (TypeError, ValueError):
            raise ValidationError(f"line {lineno}: 'labels' must be a list of integers") from None
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


def hyper_from_dict(d: dict, dim: int, base: HyperParams | None = None) -> HyperParams:
    """Hyperparameters of dimension ``dim`` from a config mapping, over
    ``base`` (``HyperParams.default(dim)`` when None).

    A number given for ``mu_H_prior`` broadcasts to a constant vector, and
    one for a ``Psi_*`` to that number times the identity.  Unknown keys are a
    hard error; ``HyperParams`` checks the values.
    """
    unknown = set(d) - _HYPER_FIELDS
    if unknown:
        raise ValidationError(f"unknown hyperparameter keys: {sorted(unknown)}")
    kw = dict(d)
    for key in ("mu_H_prior", "Psi_H", "Psi_B", "Psi_V"):
        val = kw.get(key)
        if is_real(val):
            kw[key] = np.full(dim, float(val)) if key == "mu_H_prior" else float(val) * np.eye(dim)
    return (base if base is not None else HyperParams.default(dim)).replace(**kw)


# --------------------------------------------------------------------------
# Schedules and track configuration
# --------------------------------------------------------------------------

def _repeat_count(entry, count) -> int:
    """A config repeat count: a JSON integer >= 1, never a bool."""
    if not is_int(count) or count < 1:
        raise ValidationError(f"schedule repeat counts must be integers >= 1, got {entry!r}")
    return count


def schedule_items_from_json(raw) -> tuple[str, ...]:
    """The step names of a config schedule, its repeats and blocks written out.

    An entry is a step name, a ``[name, n]`` pair (the step n times) or a
    ``{"repeat": n, "steps": [...]}`` block (its steps n times over); every
    n is an integer >= 1.
    """
    if not isinstance(raw, list):
        raise ValidationError(f"schedule steps must be a list, got {raw!r}")
    names: list[str] = []
    for entry in raw:
        if isinstance(entry, str):
            names.append(entry)
        elif isinstance(entry, list):
            if len(entry) != 2 or not isinstance(entry[0], str):
                raise ValidationError(f"schedule step list must be [name, repeat], got {entry!r}")
            names.extend([entry[0]] * _repeat_count(entry, entry[1]))
        elif isinstance(entry, dict):
            unknown = set(entry) - {"repeat", "steps"}
            if unknown:
                raise ValidationError(f"unknown schedule block keys: {sorted(unknown)}")
            names.extend(schedule_items_from_json(entry.get("steps", []))
                         * _repeat_count(entry, entry.get("repeat", 1)))
        else:
            raise ValidationError(f"bad schedule entry: {entry!r}")
    return tuple(names)


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


def load_config(path: str | None, dim: int, base: HyperParams | None = None
                ) -> tuple[HyperParams, TrackConfig, TransformCandidates]:
    """The settings of a config file for data of dimension ``dim``: its
    hyperparameters over ``base`` (``HyperParams.default(dim)`` when None),
    its track config, and the transform candidates of its grid sizes.

    No path reads as an empty config.  Anything wrong with the file, its JSON
    syntax included, is a ``ValidationError`` prefixed ``config file PATH:``.
    """
    try:
        raw = {}
        if path is not None:
            with open(path) as fh:
                raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValidationError("config file must hold a JSON object")
        unknown = set(raw) - {"hyper", "track", "candidates"}
        if unknown:
            raise ValidationError(f"unknown config sections: {sorted(unknown)}")
        for name, sec in raw.items():
            if not isinstance(sec, dict):
                raise ValidationError(f"config section {name} must be a JSON object, got {sec!r}")
        hyper = hyper_from_dict(raw.get("hyper", {}), dim, base)
        if hyper.dim != dim:
            raise ValidationError(f"mu_H_prior must have shape ({dim},), got ({hyper.dim},)")
        tcfg = track_config_from_dict(raw.get("track", {}))
        sizes = raw.get("candidates", {})
        unknown = set(sizes) - {"M_r", "M_t"}
        if unknown:
            raise ValidationError(f"unknown candidates keys: {sorted(unknown)}")
        candidates = make_transform_candidates(dim, hyper, sizes.get("M_r"), sizes.get("M_t"))
    except (ValidationError, json.JSONDecodeError) as exc:
        raise ValidationError(f"config file {path}: {exc}") from None
    return hyper, tcfg, candidates


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
        z_B=np.asarray(d["z_B"], dtype=np.int64),
        z_H=np.asarray(d["z_H"], dtype=np.int64),
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
    for lineno, rec in _json_lines(path):
        if not isinstance(rec, dict) or "t" not in rec or "state" not in rec:
            raise ValidationError(f"line {lineno}: state record needs 't' and 'state'")
        if rec.get("format_version") != FORMAT_VERSION:
            raise ValidationError(
                f"line {lineno}: unsupported format_version {rec.get('format_version')!r}")
        try:
            state = state_from_dict(rec["state"])
            hyper = None
            if rec.get("hyper") is not None:
                hyper = hyper_from_dict(rec["hyper"], state.dim)
            out.append(StateRecord(t=int(rec["t"]), state=state, hyper=hyper))
        except KeyError as exc:
            raise ValidationError(f"line {lineno}: state record lacks {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    return out
