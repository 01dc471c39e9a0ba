"""Plain-text configuration: defaults, file loading, overrides, hashing, Bench.

Config files are YAML with nested sections; any value can be overridden from
the command line with dotted keys (``trial.noise_sigma_n=0.2``).  The hash of
the canonical dump identifies the effective configuration in output headers.
"""

from __future__ import annotations

import copy
import inspect
import math
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import yaml

from .actuation import ActuatorSpec, LoadCellSpec, coupling_for_magnet
from .analysis import ANALYZE_SIGNATURE
from .hand import (
    DEFAULT_FLEXION_RANGES_DEG,
    DEFAULT_JOINT_DEPTH_MM,
    Digit,
    HandModel,
    default_hand,
    spastic_rest_pose,
)
from .spasticity import BANK_PARAMS, MasLevel, SubjectBank, SubjectProfile
from .tendons import (
    DEFAULT_BRANCH_SLACK_MM,
    DEFAULT_DEPTH_TOLERANCE_MM,
    DEFAULT_EXCURSION_TARGET_MM,
    NetworkKind,
    TendonNetwork,
    calibrate_depth,
    config1_extension,
    config2_pinch,
    net_elongation_mm,
)
from .trial import (
    DEFAULT_FUNCTIONAL_FLEXION_DEG,
    DEFAULT_SAMPLE_RATE_HZ,
    TrialConfig,
    TrialTrace,
    derive_seed,
    run_trial,
)

# A subject id names output files (``S1_extension_t00.csv``), so it must be a
# plain file-name stem: no path separator, no dot-only or empty name, and
# nothing that YAML's emitters quote or escape differently.
SUBJECT_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9_-]{0,31}")
# A subject's free-text notes: short printable ASCII, which libyaml's emitter
# and PyYAML's own write alike, so the config hash is the same on both.
NOTES = re.compile(r"[ -~]{0,200}")

# Bench-wide default for synthetic sensor noise; library-level TrialConfig
# stays noiseless unless asked.
DEFAULT_NOISE_SIGMA_N = 0.4

# libyaml's emitter and parser when PyYAML was built with them; the pure-Python
# ones otherwise.  The two emitters give the same bytes on the golden outputs and
# on documents whose strings are short printable ASCII.  They differ on some
# other strings (an empty key, a control character, a string folded across
# lines); a bench's subject ids and notes are checked to be of the first kind.
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def dump_yaml(data: Any) -> str:
    """Block-style YAML with sorted keys: the form of every file exosim writes."""
    return yaml.dump(data, Dumper=YAML_DUMPER, sort_keys=True, default_flow_style=False)


def load_yaml(text: str) -> Any:
    return yaml.load(text, Loader=YAML_LOADER)


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
        "coupling": {"magnet": None},  # None: each subject's own magnet
        "load_cell": asdict(LoadCellSpec()),
        "trial": {
            "sample_rate_hz": DEFAULT_SAMPLE_RATE_HZ,
            "noise_sigma_n": DEFAULT_NOISE_SIGMA_N,
            "functional_flexion_deg": DEFAULT_FUNCTIONAL_FLEXION_DEG,
        },
        "calibration": {
            "excursion_target_mm": DEFAULT_EXCURSION_TARGET_MM,
            "depth_tolerance_mm": DEFAULT_DEPTH_TOLERANCE_MM,
        },
        "analysis": _keyword_defaults(ANALYZE_SIGNATURE, "label"),
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
        loaded = load_yaml(path.read_text(encoding="utf-8")) or {}
    except (UnicodeDecodeError, yaml.YAMLError) as err:
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
            node[keys[-1]] = load_yaml(raw) if isinstance(raw, str) else raw
        except yaml.YAMLError as err:
            raise ConfigError(f"cannot parse override {dotted}={raw}: {err}") from None
    return merged


def canonical_yaml(cfg: Mapping) -> str:
    return dump_yaml(dict(cfg))


def config_hash(cfg: Mapping) -> str:
    import hashlib  # here, not at import: it loads OpenSSL, which analyze never needs

    return hashlib.sha256(canonical_yaml(cfg).encode()).hexdigest()[:12]


def _finite(raw: Any, key: str) -> float:
    """A config number; ValueError naming its dotted key if it is not a
    finite number."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a finite number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value}")
    return value


def _pair(raw: Any, key: str, *, open_hi=False, strict=False) -> tuple[float, float | None]:
    """A ``[lo, hi]`` config list as two finite numbers, lo <= hi (lo < hi if
    ``strict``), ``hi`` None if ``open_hi`` allows a null; ValueError naming
    its dotted key otherwise."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ValueError(f"{key} must be two numbers [lo, hi], got {raw!r}")
    lo = _finite(raw[0], key)
    hi = None if open_hi and raw[1] is None else _finite(raw[1], key)
    if hi is not None and not (lo < hi if strict else lo <= hi):
        raise ValueError(f"{key} must have lo {'<' if strict else '<='} hi, got [{lo}, {hi}]")
    return lo, hi


def _flexion_range(raw: Any, key: str) -> tuple[float, float]:
    """A joint's ``[lo, hi]`` flexion range, lo < hi, holding 0: a trial
    straightens a joint from its rest angle toward 0, which would leave a
    range without 0."""
    lo, hi = _pair(raw, key, strict=True)
    if not lo <= 0.0 <= hi:
        raise ValueError(f"{key} must hold 0, got [{lo}, {hi}]")
    return lo, hi


def _fraction_from_config(raw: Any, key: str):
    """A scalar or per-digit rest flexion fraction, each in [0, 1]."""
    if isinstance(raw, Mapping):
        return {
            Digit(k) if k != "default" else "default": _fraction_from_config(v, f"{key}.{k}")
            for k, v in raw.items()
        }
    value = _finite(raw, key)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{key} must be in [0, 1], got {value}")
    return value


def _band(raw: Any, key: str) -> tuple[float, float | None] | None:
    return None if raw is None else _pair(raw, key, open_hi=True)


def _notes(raw: Any, key: str) -> str:
    if not isinstance(raw, str) or not NOTES.fullmatch(raw):
        raise ValueError(f"{key} must be at most 200 printable ASCII characters, got {raw!r}")
    return raw


def subject_bank_from_config(cfg: Mapping, hand: HandModel) -> SubjectBank:
    # Readers of the keys a subject may leave out; those keep their
    # SubjectProfile defaults.
    optional = {
        "engage_slack_mm": _finite,
        "peak_band_n": _band,
        "magnet": lambda raw, key: str(raw),
        "notes": _notes,
    }
    profiles = []
    for sid, s in cfg["subjects"].items():
        at = f"subjects.{sid}."  # the dotted keys of this subject
        given = {name: read(s[name], at + name) for name, read in optional.items() if name in s}
        fraction = _fraction_from_config(s["rest_flexion_fraction"], at + "rest_flexion_fraction")
        profiles.append(
            SubjectProfile(
                subject_id=sid,
                mas=MasLevel(str(s["mas"])),
                stiffness_n_per_mm=_finite(s["stiffness_n_per_mm"], at + "stiffness_n_per_mm"),
                rest_pose=spastic_rest_pose(hand, fraction),
                **given,
            )
        )
    return SubjectBank(tuple(profiles))


def default_subject_bank(hand: HandModel | None = None) -> SubjectBank:
    """The five-subject synthetic cohort spanning tone grades 1-3."""
    return subject_bank_from_config(default_config(), hand or default_hand())


def _floats(section: Mapping, name: str) -> dict[str, float]:
    try:
        values = {key: float(value) for key, value in section.items()}
    except (AttributeError, TypeError, ValueError):
        raise ValueError(f"section {name} must map keys to numbers, got {section!r}") from None
    return {key: _finite(value, f"{name}.{key}") for key, value in values.items()}


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
    malformed config fails in one place, with a ConfigError.  A bench holds
    at least one subject and builds every subject's trial as it is made, so
    it holds no trial that fails.
    """

    hand: HandModel
    kind: NetworkKind
    extension: TendonNetwork
    pinch: TendonNetwork
    actuator: ActuatorSpec
    cell: LoadCellSpec
    bank: SubjectBank
    magnet: str | None  # one coupling for every subject; None keeps each one's own
    trial: Mapping[str, float]  # further TrialConfig fields
    analysis: Mapping[str, float]  # analyze() thresholds
    excursion_target_mm: float
    depth_tolerance_mm: float
    # Each subject's trial on the selected network, by subject id.
    trial_configs: Mapping[str, TrialConfig] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.bank.profiles:
            raise ValueError("subjects must name at least one subject")
        if not self.depth_tolerance_mm > 0.0:
            raise ValueError(
                f"calibration.depth_tolerance_mm must be > 0, got {self.depth_tolerance_mm}"
            )
        configs = {
            p.subject_id: TrialConfig(
                self.hand, self.network, p, actuator=self.actuator, magnet=self.magnet,
                cell=self.cell, **self.trial,
            )
            for p in self.bank
        }
        object.__setattr__(self, "trial_configs", configs)

    @classmethod
    def from_config(cls, cfg: Mapping) -> "Bench":
        try:
            defaults = default_config()
            # Subject ids are free; each subject takes the default subjects' keys.
            ids = cfg["subjects"] if isinstance(cfg["subjects"], Mapping) else ()
            entry = {key: None for params in defaults["subjects"].values() for key in params}
            _check_keys(cfg, {**defaults, "subjects": dict.fromkeys(ids, entry)}, "")
            for sid in ids:
                if not isinstance(sid, str) or not SUBJECT_ID.fullmatch(sid):
                    raise ConfigError(
                        f"subject id {sid!r} is not 1-32 letters, digits, '_' or '-' "
                        "starting with a letter or digit"
                    )
            ranges = cfg["hand"]["flexion_ranges_deg"]
            hand = default_hand(
                _finite(cfg["hand"]["joint_center_depth_mm"], "hand.joint_center_depth_mm"),
                {k: _flexion_range(v, f"hand.flexion_ranges_deg.{k}") for k, v in ranges.items()},
            )
            net = cfg["network"]
            slack = _finite(net["branch_slack_mm"], "network.branch_slack_mm")
            magnet = cfg["coupling"]["magnet"]
            if magnet is not None:
                coupling_for_magnet(magnet)  # an unknown magnet fails here
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
                magnet=magnet,
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

    @property
    def effective_travel_mm(self) -> float:
        """How far the extension junction moves past slack over the full stroke."""
        return float(net_elongation_mm(self.extension, self.actuator.stroke_mm))

    def calibrated_hand(self) -> HandModel:
        """The hand at the joint depth where the extension network's index
        branch pays out the excursion target."""
        return calibrate_depth(self.hand, self.extension, self.excursion_target_mm)

    def trials(
        self, seed: int, per_subject: int, ids: Sequence[str] | None = None
    ) -> Iterator[tuple[SubjectProfile, int, TrialTrace]]:
        """Run ``per_subject`` trials of each subject in ``ids`` (default: the
        bank), in that order; trial ``t_idx`` of the subject at bank index
        ``s_idx`` draws its noise from ``derive_seed(seed, s_idx, t_idx)``."""
        bank_ids = self.bank.ids()
        for sid in bank_ids if ids is None else ids:
            cfg = self.trial_configs[sid]
            for t_idx in range(per_subject):
                yield cfg.subject, t_idx, run_trial(
                    cfg, derive_seed(seed, bank_ids.index(sid), t_idx)
                )


def write_config(cfg: Mapping, path: str | Path, provenance: list[str] | None = None) -> None:
    """Write a config file with optional leading comment lines."""
    from .traceio import write_text_atomic

    header = "".join(f"# {line}\n" for line in provenance or [])
    write_text_atomic(Path(path), header + canonical_yaml(cfg))
