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

from .actuation import ActuatorSpec, LoadCellSpec, coupling_for_magnet
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
from .spasticity import BANK_PARAMS, MasLevel, SubjectBank, SubjectProfile, resistance_force_n
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

# PyYAML loads only where it is needed: to read a YAML document, and to write
# one that ``_emit`` declines.  The documents exosim writes are of the few
# forms ``_emit`` knows, so a command that reads no YAML never imports PyYAML
# (15-23 ms after numpy in ``-X importtime``, 2 vCPU Xeon).  Its dumper and
# loader are libyaml's emitter and parser when PyYAML was built with them, the
# pure-Python ones otherwise; both are set on first use, unless already set.
# The two emitters give the same bytes on the golden outputs and on documents
# whose strings are short printable ASCII.  They differ on some other strings
# (an empty key, a control character, a string folded across lines); a
# bench's subject ids and notes are checked to be of the first kind.
YAML_DUMPER: Any = None
YAML_LOADER: Any = None


def _pyyaml():
    """The ``yaml`` module, with ``YAML_DUMPER`` and ``YAML_LOADER`` set."""
    global YAML_DUMPER, YAML_LOADER
    import yaml

    if YAML_DUMPER is None:
        YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    if YAML_LOADER is None:
        YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    return yaml


# The strings ``_emit`` writes: words of these characters one space apart, or
# the empty string.
_WORDS = re.compile(r"(?:[A-Za-z0-9_.-]+(?: [A-Za-z0-9_.-]+)*)?")
# Those of them that PyYAML's implicit resolvers read as null, a bool, an int,
# a float or a date (its patterns, less the forms that need a character
# outside ``_WORDS``), and those that start with a block indicator.  PyYAML
# writes such a string single-quoted, and every other one plain.
_TYPED = re.compile(
    r"""|null|Null|NULL
    |yes|Yes|YES|no|No|NO|true|True|TRUE|false|False|FALSE|on|On|ON|off|Off|OFF
    |[-+]?(?:0b[0-1_]+|0[0-7_]+|0|[1-9][0-9_]*|0x[0-9a-fA-F_]+)
    |[-+]?[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)?|\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?
    |[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN)
    |[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]
    |-|-\ .*|---.*|\.\.\..*""",
    re.X,
)
# PyYAML folds a plain or quoted string at a space past this column.
_WIDTH = 80


def plain_word(text: str) -> bool:
    """Whether PyYAML writes ``text`` plain and reads it back as that string."""
    return bool(_WORDS.fullmatch(text)) and not _TYPED.fullmatch(text)


class _Declined(Exception):
    """A document that ``_emit`` does not write."""


def _scalar(value: Any, column: int) -> str:
    """``value`` as PyYAML writes it starting at ``column``, if it is None, a
    bool, an int, a float or a ``_WORDS`` string that fits in the line;
    ``_Declined`` for anything else."""
    kind = type(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if kind is float:
        if value != value:
            return ".nan"
        if math.isinf(value):
            return ".inf" if value > 0 else "-.inf"
        text = repr(value).lower()
        # A repr such as 1e+17 is not a YAML float without its ".0".
        return text.replace("e", ".0e", 1) if "." not in text and "e" in text else text
    if kind is str and _WORDS.fullmatch(value):
        text = f"'{value}'" if _TYPED.fullmatch(value) else value
        if column + len(text) <= _WIDTH:
            return text
    raise _Declined


def _emit(data: Any) -> str | None:
    """``data`` as ``yaml.dump`` writes it in block style with sorted keys,
    when it is a dict whose keys are non-empty strings and whose values are
    ``_scalar`` values, dicts of the same kind and lists of ``_scalar``
    values, none of them twice (PyYAML gives a repeated list or dict an
    anchor); None for any other document."""
    if type(data) is not dict:
        return None
    lines: list[str] = []
    seen = {id(data)}

    def mapping(node: dict, indent: int) -> None:
        if not all(type(key) is str and key for key in node):  # libyaml writes '' apart
            raise _Declined
        pad = " " * indent
        for key in sorted(node):
            head = pad + _scalar(key, indent) + ":"
            value = node[key]
            if type(value) not in (dict, list):
                lines.append(f"{head} {_scalar(value, len(head) + 1)}\n")
                continue
            if id(value) in seen:
                raise _Declined
            seen.add(id(value))
            if not value:
                lines.append(f"{head} {'{}' if type(value) is dict else '[]'}\n")
                continue
            lines.append(head + "\n")
            if type(value) is dict:
                mapping(value, indent + 2)
            else:  # a list's items go at its key's indent
                lines.extend(f"{pad}- {_scalar(item, indent + 2)}\n" for item in value)

    if not data:
        return "{}\n"
    try:
        mapping(data, 0)
    except _Declined:
        return None
    return "".join(lines)


def dump_yaml(data: Any) -> str:
    """Block-style YAML with sorted keys: the form of every file exosim writes.
    ``_emit`` writes the document if it can, PyYAML otherwise."""
    text = _emit(data)
    if text is None:
        yaml = _pyyaml()
        text = yaml.dump(data, Dumper=YAML_DUMPER, sort_keys=True, default_flow_style=False)
    return text


def load_yaml(text: str) -> Any:
    """The document ``text`` holds; ValueError with PyYAML's message if it is
    not YAML."""
    yaml = _pyyaml()
    try:
        return yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as err:
        raise ValueError(str(err)) from None


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


def apply_overrides(cfg: dict, overrides: Mapping[str, str]) -> dict:
    """Apply dotted-key overrides; values are parsed as YAML, a
    ``plain_word`` without PyYAML as the string it is."""
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
        if not isinstance(raw, str) or plain_word(raw):
            node[keys[-1]] = raw
            continue
        try:
            node[keys[-1]] = load_yaml(raw)
        except ValueError as err:
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
            "default" if k == "default" else _enum(Digit, k, f"the digit of {key}.{k}"):
            _fraction_from_config(v, f"{key}.{k}")
            for k, v in raw.items()
        }
    value = _finite(raw, key)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{key} must be in [0, 1], got {value}")
    return value


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
        for name in ("rest_flexion_fraction", "mas", "stiffness_n_per_mm"):
            if name not in s:
                raise KeyError(at + name)
        given = {name: read(s[name], at + name) for name, read in optional.items() if name in s}
        fraction = _fraction_from_config(s["rest_flexion_fraction"], at + "rest_flexion_fraction")
        profiles.append(
            SubjectProfile(
                subject_id=sid,
                mas=_enum(MasLevel, s["mas"], at + "mas"),
                stiffness_n_per_mm=_finite(s["stiffness_n_per_mm"], at + "stiffness_n_per_mm"),
                rest_pose=spastic_rest_pose(hand, fraction),
                **given,
            )
        )
    return SubjectBank(tuple(profiles))


def _floats(section: Mapping, name: str) -> dict[str, float]:
    try:
        values = {key: float(value) for key, value in section.items()}
    except (AttributeError, TypeError, ValueError):
        raise ValueError(f"section {name} must map keys to numbers, got {section!r}") from None
    return {key: _finite(value, f"{name}.{key}") for key, value in values.items()}


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

    ``from_config`` is the only reader of the config's sections, so every
    malformed config fails in one place, with a ConfigError.  A bench holds
    at least one subject and builds every subject's trial as it is made, so
    it holds no trial that fails.
    """

    def __init__(
        self,
        hand: HandModel,
        kind: NetworkKind,
        extension: TendonNetwork,
        pinch: TendonNetwork,
        actuator: ActuatorSpec,
        cell: LoadCellSpec,
        bank: SubjectBank,
        magnet: str | None,  # one coupling for every subject; None keeps each one's own
        trial: Mapping[str, float],  # further TrialConfig fields
        analysis: Mapping[str, float],  # analyze() thresholds
        excursion_target_mm: float,
        depth_tolerance_mm: float,
    ) -> None:
        self.hand = hand
        self.kind = kind
        self.extension = extension
        self.pinch = pinch
        self.actuator = actuator
        self.cell = cell
        self.bank = bank
        self.magnet = magnet
        self.trial = trial
        self.analysis = analysis
        self.excursion_target_mm = excursion_target_mm
        self.depth_tolerance_mm = depth_tolerance_mm
        if not self.bank.profiles:
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
                    raise ValueError(f"hand.joint_center_depth_mm and network.{net.kind.value} "
                                     "give a tendon excursion beyond float range")
            travel = net_elongation_mm(self.network, self.actuator.stroke_mm)
            for p in self.bank:
                if not np.isfinite(resistance_force_n(p, travel)):
                    raise ValueError(f"subjects.{p.subject_id}.stiffness_n_per_mm gives a "
                                     "spring force beyond float range")
        # Each subject's trial on the selected network, by subject id.
        self.trial_configs = {
            p.subject_id: TrialConfig(
                self.hand, self.network, p, actuator=self.actuator, magnet=self.magnet,
                cell=self.cell, **self.trial,
            )
            for p in self.bank
        }

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
                kind=_enum(NetworkKind, net["kind"], "network.kind"),
                extension=config1_extension(
                    slack_mm=slack, **_floats(net["extension"], "network.extension")
                ),
                pinch=config2_pinch(slack_mm=slack, **_floats(net["pinch"], "network.pinch")),
                actuator=_spec(ActuatorSpec, cfg["actuator"], "actuator"),
                cell=_spec(LoadCellSpec, cfg["load_cell"], "load_cell"),
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

    def calibrated(self) -> "Bench":
        """This bench driving the extension network, with the hand at the
        joint depth where that network's index branch pays out the excursion
        target."""
        fields = {name: value for name, value in vars(self).items() if name != "trial_configs"}
        hand = calibrate_depth(self.hand, self.extension, self.excursion_target_mm)
        return Bench(**{**fields, "hand": hand, "kind": NetworkKind.EXTENSION})

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
