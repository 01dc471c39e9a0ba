"""Plain-text configuration: defaults, file loading, overrides, hashing, Bench.

Config files are YAML with nested sections; any value can be overridden from
the command line with dotted keys (``trial.noise_sigma_n=0.2``).  The hash of
the canonical dump identifies the effective configuration in output headers.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Mapping

import yaml

from .actuation import ActuatorSpec, LoadCellSpec
from .analysis import analyze
from .hand import (
    DEFAULT_FLEXION_RANGES_DEG,
    DEFAULT_JOINT_DEPTH_MM,
    Digit,
    HandModel,
    default_hand,
    spastic_rest_pose,
)
from .spasticity import (
    BANK_PARAMS,
    DEFAULT_TOTAL_TRAVEL_MM,
    MasLevel,
    SubjectBank,
    SubjectProfile,
)
from .tendons import (
    DEFAULT_BRANCH_SLACK_MM,
    DEFAULT_DEPTH_TOLERANCE_MM,
    DEFAULT_EXCURSION_TARGET_MM,
    NetworkKind,
    TendonNetwork,
    config1_extension,
    config2_pinch,
)
from .trial import (
    DEFAULT_FUNCTIONAL_FLEXION_DEG,
    DEFAULT_SAMPLE_RATE_HZ,
    TrialConfig,
    trial_config_for,
)

TOOL_VERSION = "0.1.0"

# Bench-wide default for synthetic sensor noise; library-level TrialConfig
# stays noiseless unless asked.
DEFAULT_NOISE_SIGMA_N = 0.4

# Read at import: a wrapper put in analyze()'s place later (perfbench's tracer)
# would hide its keywords and so change the default config.
_ANALYZE = inspect.signature(analyze)


def _keyword_defaults(signature: inspect.Signature, *skip: str) -> dict:
    """Keyword-only parameter defaults: the values the library itself uses."""
    return {
        name: p.default
        for name, p in signature.parameters.items()
        if p.kind is p.KEYWORD_ONLY and name not in skip
    }


def default_config() -> dict:
    """The complete default configuration, each value the library's own."""
    return {
        "hand": {
            "joint_center_depth_mm": DEFAULT_JOINT_DEPTH_MM,
            "flexion_ranges_deg": {
                k: [v[0], v[1]] for k, v in sorted(DEFAULT_FLEXION_RANGES_DEG.items())
            },
        },
        "network": {
            "kind": NetworkKind.EXTENSION.value,
            "branch_slack_mm": DEFAULT_BRANCH_SLACK_MM,
            "extension": _keyword_defaults(inspect.signature(config1_extension), "slack_mm"),
            "pinch": _keyword_defaults(inspect.signature(config2_pinch), "slack_mm"),
        },
        "actuator": asdict(ActuatorSpec()),
        "coupling": {"magnet": "standard"},
        "load_cell": asdict(LoadCellSpec()),
        "trial": {
            "sample_rate_hz": DEFAULT_SAMPLE_RATE_HZ,
            "noise_sigma_n": DEFAULT_NOISE_SIGMA_N,
            "functional_flexion_deg": DEFAULT_FUNCTIONAL_FLEXION_DEG,
        },
        "calibration": {
            "excursion_target_mm": DEFAULT_EXCURSION_TARGET_MM,
            "effective_travel_mm": DEFAULT_TOTAL_TRAVEL_MM,
            "depth_tolerance_mm": DEFAULT_DEPTH_TOLERANCE_MM,
        },
        "analysis": _keyword_defaults(_ANALYZE, "label"),
        "subjects": {
            sid: dict(copy.deepcopy(params), engage_slack_mm=SubjectProfile.engage_slack_mm)
            for sid, params in BANK_PARAMS.items()
        },
    }


def _deep_merge(base: dict, override: Mapping) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, Mapping) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


class ConfigError(ValueError):
    pass


def load_config(path: str | Path | None = None) -> dict:
    """Defaults deep-merged with an optional YAML file."""
    cfg = default_config()
    if path is None:
        return cfg
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        loaded = yaml.safe_load(path.read_text()) or {}
    except yaml.YAMLError as err:
        raise ConfigError(f"cannot parse config {path}: {err}") from err
    if not isinstance(loaded, Mapping):
        raise ConfigError(f"config {path} must be a mapping at top level")
    return _deep_merge(cfg, loaded)


def apply_overrides(cfg: dict, overrides: Mapping[str, str]) -> dict:
    """Apply dotted-key overrides; values are parsed as YAML scalars."""
    merged = copy.deepcopy(cfg)
    for dotted, raw in overrides.items():
        keys = dotted.split(".")
        node = merged
        for key in keys[:-1]:
            nxt = node.get(key)
            if not isinstance(nxt, dict):
                nxt = {}
                node[key] = nxt
            node = nxt
        try:
            node[keys[-1]] = yaml.safe_load(raw) if isinstance(raw, str) else raw
        except yaml.YAMLError as err:
            raise ConfigError(f"cannot parse override {dotted}={raw}: {err}") from None
    return merged


def canonical_yaml(cfg: Mapping) -> str:
    return yaml.safe_dump(dict(cfg), sort_keys=True, default_flow_style=False)


def config_hash(cfg: Mapping) -> str:
    return hashlib.sha256(canonical_yaml(cfg).encode()).hexdigest()[:12]


def _fraction_from_config(raw: Any):
    if isinstance(raw, Mapping):
        out: dict = {}
        for k, v in raw.items():
            key = Digit(k) if k != "default" else "default"
            out[key] = float(v)
        return out
    return float(raw)


def subject_bank_from_config(cfg: Mapping, hand: HandModel) -> SubjectBank:
    profiles = []
    for sid, s in cfg["subjects"].items():
        band_raw = s.get("peak_band_n")
        band = None
        if band_raw is not None:
            lo, hi = band_raw
            band = (float(lo), None if hi is None else float(hi))
        profiles.append(
            SubjectProfile(
                subject_id=sid,
                mas=MasLevel(str(s["mas"])),
                stiffness_n_per_mm=float(s["stiffness_n_per_mm"]),
                rest_pose=spastic_rest_pose(
                    hand, _fraction_from_config(s["rest_flexion_fraction"])
                ),
                engage_slack_mm=float(s.get("engage_slack_mm", 0.0)),
                peak_band_n=band,
                magnet=s.get("magnet", "standard"),
                notes=s.get("notes", ""),
            )
        )
    return SubjectBank(tuple(profiles))


def default_subject_bank(hand: HandModel | None = None) -> SubjectBank:
    """The five-subject synthetic cohort spanning tone grades 1-3."""
    return subject_bank_from_config(default_config(), hand or default_hand())


def _floats(section: Mapping, name: str) -> dict[str, float]:
    try:
        return {key: float(value) for key, value in section.items()}
    except (AttributeError, TypeError, ValueError):
        raise ValueError(f"section {name} must map keys to numbers, got {section!r}") from None


def _check_keys(section: Any, known: Mapping, name: str) -> None:
    """Reject a section that is not a mapping, and a key that its default
    section ``known`` lacks, here and in every nested default section."""
    if not isinstance(section, Mapping):
        raise ValueError(f"section {name} must be a mapping, got {section!r}")
    for key, value in section.items():
        path = f"{name}.{key}".lstrip(".")
        if key not in known:
            raise ValueError(
                f"unknown key {path!r}; known keys: {', '.join(map(str, known))}"
            )
        if isinstance(known[key], dict):
            _check_keys(value, known[key], path)


@dataclass(frozen=True)
class Bench:
    """Everything a command drives, read once from an effective config.

    ``from_config`` is the only reader of the config's sections, so every
    malformed config fails in one place, with a ConfigError.
    """

    hand: HandModel
    kind: NetworkKind
    extension: TendonNetwork
    pinch: TendonNetwork
    actuator: ActuatorSpec
    cell: LoadCellSpec
    bank: SubjectBank
    trial: Mapping[str, float]  # further TrialConfig fields
    analysis: Mapping[str, float]  # analyze() thresholds
    excursion_target_mm: float
    effective_travel_mm: float
    depth_tolerance_mm: float

    @classmethod
    def from_config(cls, cfg: Mapping) -> "Bench":
        try:
            defaults = default_config()
            # Subject ids are free; each subject takes the default subjects' keys.
            ids = cfg["subjects"] if isinstance(cfg["subjects"], Mapping) else ()
            entry = {key: None for params in defaults["subjects"].values() for key in params}
            _check_keys(cfg, {**defaults, "subjects": dict.fromkeys(ids, entry)}, "")
            hand = default_hand(
                float(cfg["hand"]["joint_center_depth_mm"]),
                cfg["hand"]["flexion_ranges_deg"],
            )
            net = cfg["network"]
            slack = float(net["branch_slack_mm"])
            return cls(
                hand=hand,
                kind=NetworkKind(net["kind"]),
                extension=config1_extension(
                    slack_mm=slack, **_floats(net["extension"], "network.extension")
                ),
                pinch=config2_pinch(slack_mm=slack, **_floats(net["pinch"], "network.pinch")),
                actuator=ActuatorSpec(**_floats(cfg["actuator"], "actuator")),
                cell=LoadCellSpec(**_floats(cfg["load_cell"], "load_cell")),
                bank=subject_bank_from_config(cfg, hand),
                trial=_floats(cfg["trial"], "trial"),
                analysis=_floats(cfg["analysis"], "analysis"),
                **_floats(cfg["calibration"], "calibration"),
            )
        except KeyError as err:
            raise ConfigError(f"config is missing key {err}") from None
        except (AttributeError, IndexError, TypeError, ValueError) as err:
            raise ConfigError(f"invalid config: {err}") from None

    @property
    def network(self) -> TendonNetwork:
        """The network that ``kind`` selects."""
        return self.extension if self.kind is NetworkKind.EXTENSION else self.pinch

    def trial_config(self, subject: SubjectProfile, magnet: str | None) -> TrialConfig:
        """A trial of ``subject`` on the selected network; magnet None keeps theirs."""
        return trial_config_for(
            self.hand, self.network, subject, magnet=magnet,
            actuator=self.actuator, cell=self.cell, **self.trial,
        )


def write_config(cfg: Mapping, path: str | Path, provenance: list[str] | None = None) -> None:
    """Write a config file with optional leading comment lines."""
    from .traceio import write_text_atomic

    header = "".join(f"# {line}\n" for line in provenance or [])
    write_text_atomic(Path(path), header + canonical_yaml(cfg))
