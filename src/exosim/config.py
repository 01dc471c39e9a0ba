"""Plain-text configuration: defaults, file loading, overrides, hashing, Bench.

Config files are YAML with nested sections; any value can be overridden from
the command line with dotted keys (``trial.noise_sigma_n=0.2``).  The hash of
the canonical dump identifies the effective configuration in output headers.
"""

from __future__ import annotations

import copy
import math
import re
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .actuation import ActuatorSpec, LoadCellSpec
from .analysis import ANALYZE_DEFAULTS
from .hand import (
    DEFAULT_FLEXION_RANGES_DEG,
    DEFAULT_JOINT_DEPTH_MM,
    Digit,
    HandModel,
    default_hand,
    full_flexion_pose,
    spastic_rest_pose,
)
from .spasticity import BANK_PARAMS, MasLevel, SubjectProfile, resistance_force_n
from .tendons import (
    DEFAULT_BRANCH_SLACK_MM,
    DEFAULT_DEPTH_TOLERANCE_MM,
    DEFAULT_EXCURSION_TARGET_MM,
    NetworkKind,
    TendonNetwork,
    calibrate_depth,
    config1_extension,
    config2_pinch,
    excursion_mm,
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
from .yamlio import dump_yaml, load_yaml

# A subject id names output files (``S1_extension_t00.csv``), so it must be a
# plain file-name stem: no path separator, no dot-only or empty name.  It is
# also a word, so ``dump_yaml`` takes it as a key.
SUBJECT_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9_-]{0,31}")
# A subject's free-text notes: one short line of printable ASCII, so a config
# file shows a note on one line, as it was typed but for an escaped '"' or
# backslash.
NOTES = re.compile(r"[ -~]{0,200}")

# Bench-wide default for synthetic sensor noise; library-level TrialConfig
# stays noiseless unless asked.
DEFAULT_NOISE_SIGMA_N = 0.4

def _keyword_defaults(defaults: Mapping[str, Any], *skip: str) -> dict:
    """Keyword-only parameter defaults (a function's ``__kwdefaults__``)
    without ``skip``: the values the library itself uses."""
    return {name: value for name, value in defaults.items() if name not in skip}


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
            "extension": _keyword_defaults(config1_extension.__kwdefaults__, "slack_mm"),
            "pinch": _keyword_defaults(config2_pinch.__kwdefaults__, "slack_mm"),
        },
        "actuator": vars(ActuatorSpec()),
        "coupling": {"magnet": None},  # None: each subject's own magnet
        "load_cell": vars(LoadCellSpec()),
        "trial": {
            "sample_rate_hz": DEFAULT_SAMPLE_RATE_HZ,
            "noise_sigma_n": DEFAULT_NOISE_SIGMA_N,
            "functional_flexion_deg": DEFAULT_FUNCTIONAL_FLEXION_DEG,
        },
        "calibration": {
            "excursion_target_mm": DEFAULT_EXCURSION_TARGET_MM,
            "depth_tolerance_mm": DEFAULT_DEPTH_TOLERANCE_MM,
        },
        "analysis": _keyword_defaults(ANALYZE_DEFAULTS, "label"),
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
    """Defaults deep-merged with an optional YAML file.  A file's ``subjects``
    section is the whole bank: it replaces the default subjects."""
    cfg = default_config()
    if path is None:
        return cfg
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        loaded = load_yaml(path.read_text(encoding="utf-8")) or {}
    except ValueError as err:  # not UTF-8, or not YAML
        raise ConfigError(f"cannot parse config {path}: {err}") from err
    if not isinstance(loaded, Mapping):
        raise ConfigError(f"config {path} must be a mapping at top level")
    if "subjects" in loaded:
        del cfg["subjects"]
    return _deep_merge(cfg, loaded)


def apply_overrides(cfg: dict, overrides: Mapping[str, Any]) -> dict:
    """Apply dotted-key overrides; text is read as YAML (``load_yaml``), and
    any other value is taken as it is."""
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
        if not isinstance(raw, str):
            node[keys[-1]] = raw
            continue
        try:
            node[keys[-1]] = load_yaml(raw)
        except ValueError as err:
            raise ConfigError(f"cannot parse override {dotted}={raw}: {err}") from None
    return merged


def config_hash(cfg: Mapping) -> str:
    import hashlib  # here, not at import: it loads OpenSSL, which analyze never needs

    return hashlib.sha256(dump_yaml(cfg).encode()).hexdigest()[:12]


def finite_number(raw: Any, key: str) -> float:
    """A number of a config or a trace sidecar as a float; ValueError naming
    its dotted key if it is not a finite number, as a bool or bytes is not,
    though ``float`` reads either."""
    try:
        if isinstance(raw, (bool, bytes, bytearray)):
            raise TypeError
        value = float(raw)
    except (OverflowError, TypeError, ValueError):  # OverflowError: an int past float range
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
    lo = finite_number(raw[0], key)
    hi = None if open_hi and raw[1] is None else finite_number(raw[1], key)
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


def _fraction(raw: Any, key: str) -> float:
    value = finite_number(raw, key)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{key} must be in [0, 1], got {value}")
    return value


def _fraction_from_config(raw: Any, key: str):
    """A rest flexion fraction in [0, 1], or a mapping of digits (and
    ``default``) to such fractions."""
    if not isinstance(raw, Mapping):
        return _fraction(raw, key)
    return {
        "default" if k == "default" else _enum(Digit, k, f"the digit of {key}.{k}"):
        _fraction(v, f"{key}.{k}")
        for k, v in raw.items()
    }


def _band(raw: Any, key: str) -> tuple[float, float | None] | None:
    return None if raw is None else _pair(raw, key, open_hi=True)


def _enum(kind, raw: Any, key: str):
    """The member of the Enum ``kind`` whose value is ``raw`` as text;
    ValueError naming its dotted key and the choices otherwise."""
    try:
        return kind(str(raw))
    except ValueError:
        choices = ", ".join(repr(m.value) for m in kind)
        raise ValueError(f"{key} must be one of {choices}, got {raw!r}") from None


def _notes(raw: Any, key: str) -> str:
    if not isinstance(raw, str) or not NOTES.fullmatch(raw):
        raise ValueError(f"{key} must be at most 200 printable ASCII characters, got {raw!r}")
    return raw


def subject_bank_from_config(cfg: Mapping, hand: HandModel) -> tuple[SubjectProfile, ...]:
    """The profiles of the config's subjects, in its order, each pose on ``hand``."""
    # Readers of the keys a subject may leave out; those keep their
    # SubjectProfile defaults.
    optional = {
        "engage_slack_mm": finite_number,
        "peak_band_n": _band,
        "magnet": lambda raw, key: str(raw),
        "notes": _notes,
    }
    profiles = []
    for sid, s in cfg["subjects"].items():
        at = f"subjects.{sid}."  # the dotted keys of this subject
        for name in ("rest_flexion_fraction", "mas", "stiffness_n_per_mm"):
            if name not in s:
                raise KeyError(at + name)
        given = {name: read(s[name], at + name) for name, read in optional.items() if name in s}
        fraction = _fraction_from_config(s["rest_flexion_fraction"], at + "rest_flexion_fraction")
        profiles.append(
            SubjectProfile(
                subject_id=sid,
                mas=_enum(MasLevel, s["mas"], at + "mas"),
                stiffness_n_per_mm=finite_number(
                    s["stiffness_n_per_mm"], at + "stiffness_n_per_mm"
                ),
                rest_pose=spastic_rest_pose(hand, fraction),
                **given,
            )
        )
    return tuple(profiles)


def _floats(section: Mapping, name: str) -> dict[str, float]:
    """A config section of numbers (``_check_keys`` has found it a mapping)."""
    return {key: finite_number(value, f"{name}.{key}") for key, value in section.items()}


def _spec(cls, section: Mapping, name: str):
    """``cls`` from a config section of numbers; its ValueError names the section."""
    values = _floats(section, name)
    try:
        return cls(**values)
    except ValueError as err:
        raise ValueError(f"{name}.{err}") from None


def _check_keys(section: Any, known: Mapping, name: str) -> None:
    """Reject a section that is not a mapping, and a key that its default
    section ``known`` lacks, here and in every nested default section."""
    if not isinstance(section, Mapping):
        raise ValueError(f"section {name} must be a mapping, got {section!r}")
    for key, value in section.items():
        path = f"{name}.{key}".lstrip(".")
        if key not in known:
            import difflib  # only for this message

            names = [str(k) for k in known]
            close = difflib.get_close_matches(str(key), names, n=1)
            hint = f"did you mean {close[0]!r}? " if close else ""
            raise ValueError(f"unknown key {path!r}; {hint}known keys: {', '.join(names)}")
        if isinstance(known[key], dict):
            _check_keys(value, known[key], path)


class Bench:
    """Everything a command drives, read once from an effective config.

    The constructor is the only reader of the config's sections, so every
    malformed config fails in one place, with a ConfigError.  A bench keeps
    the config it read as ``config``, holds at least one subject and builds
    every subject's trial as it is made, so it holds no trial that fails.
    """

    def __init__(self, cfg: Mapping) -> None:
        self.config = cfg
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
            self.hand = default_hand(
                finite_number(cfg["hand"]["joint_center_depth_mm"], "hand.joint_center_depth_mm"),
                {k: _flexion_range(v, f"hand.flexion_ranges_deg.{k}") for k, v in ranges.items()},
            )
            net = cfg["network"]
            slack = finite_number(net["branch_slack_mm"], "network.branch_slack_mm")
            self.kind = _enum(NetworkKind, net["kind"], "network.kind")
            self.extension = config1_extension(
                slack_mm=slack, **_floats(net["extension"], "network.extension")
            )
            self.pinch = config2_pinch(slack_mm=slack, **_floats(net["pinch"], "network.pinch"))
            self.actuator = _spec(ActuatorSpec, cfg["actuator"], "actuator")
            self.cell = _spec(LoadCellSpec, cfg["load_cell"], "load_cell")
            self.bank = subject_bank_from_config(cfg, self.hand)
            trial = _floats(cfg["trial"], "trial")  # further TrialConfig fields
            self.analysis = _floats(cfg["analysis"], "analysis")  # analyze() thresholds
            calibration = _floats(cfg["calibration"], "calibration")
            self.excursion_target_mm = calibration["excursion_target_mm"]
            self.depth_tolerance_mm = calibration["depth_tolerance_mm"]
            if not self.bank:
                raise ValueError("subjects must name at least one subject")
            if not self.depth_tolerance_mm > 0.0:
                raise ValueError(
                    f"calibration.depth_tolerance_mm must be > 0, got {self.depth_tolerance_mm}"
                )
            # Every tendon excursion and spring force a trial reaches must be a
            # float; an overflow is what these look for, so it is not warned of.
            with np.errstate(over="ignore", invalid="ignore"):
                full = full_flexion_pose(self.hand)
                for net in (self.extension, self.pinch):
                    if not np.isfinite(excursion_mm(self.hand, net, full)).all():
                        raise ValueError(f"hand.joint_center_depth_mm and network.{net.kind.value}"
                                         " give a tendon excursion beyond float range")
                travel = net_elongation_mm(self.network, self.actuator.stroke_mm)
                for p in self.bank:
                    if not np.isfinite(resistance_force_n(p, travel)):
                        raise ValueError(f"subjects.{p.subject_id}.stiffness_n_per_mm gives a "
                                         "spring force beyond float range")
            # Each subject's trial on the selected network, by subject id; an
            # unknown magnet fails in the first.
            self.trial_configs = {
                p.subject_id: TrialConfig(
                    self.hand, self.network, p, actuator=self.actuator,
                    magnet=cfg["coupling"]["magnet"],  # None: each subject's own
                    cell=self.cell, **trial,
                )
                for p in self.bank
            }
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

    def calibrated(self) -> "Bench":
        """The bench of this config with the hand at the joint depth where
        the extension network's index branch pays out the excursion target."""
        depth = calibrate_depth(self.hand, self.extension, self.excursion_target_mm).depth_mm
        hand = {**self.config["hand"], "joint_center_depth_mm": depth}
        return Bench({**self.config, "hand": hand})

    def trials(
        self, seed: int, per_subject: int, ids: Sequence[str] | None = None
    ) -> Iterator[tuple[SubjectProfile, int, TrialTrace]]:
        """Run ``per_subject`` trials of each subject in ``ids`` (default: the
        bank), in that order; trial ``t_idx`` of the subject at bank index
        ``s_idx`` draws its noise from ``derive_seed(seed, s_idx, t_idx)``;
        ValueError, before the first trial, if ``per_subject`` is below 1."""
        if per_subject < 1:
            raise ValueError(f"trials per subject must be >= 1, got {per_subject}")
        bank_ids = list(self.trial_configs)
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
    write_text_atomic(Path(path), header + dump_yaml(cfg))
