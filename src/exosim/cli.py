"""Command-line front end.

Four commands: ``simulate`` writes trial traces, ``analyze`` runs the
force-position pipeline over recorded CSVs, ``calibrate`` solves model
parameters and writes a derived config, ``reproduce`` reruns the whole
campaign with self-checks.  Every flag overrides the corresponding config
key; the config file comes from ``--config`` or the EXOSIM_CONFIG
environment variable, with built-in defaults underneath.

Exit codes: 0 success, 1 validation or input error, 2 reproduction checks
failed.

This module imports only the standard library; ``main`` imports what the
chosen command runs, so ``--version``, ``--help`` and usage errors answer
without numpy.  A CLI process then freezes the collector over what it loaded,
and refuses OpenSSL where it can do without (see ``main``).
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import TOOL_VERSION

if TYPE_CHECKING:
    from .analysis import AnalysisReport

ENV_CONFIG = "EXOSIM_CONFIG"
# numpy's BLAS starts a thread per CPU when it loads, and no command runs BLAS.
# ``main`` sets each of these to 1 before numpy loads, unless it is set already.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Each analysis process takes at least this many traces.  On 2 shared vCPUs
# (Python 3.11, numpy 2.4), a split CLI run against one process on one CPU, in
# medians of 20 alternating pairs: 0.192 against 0.195 s at 48 traces (faster
# in 7), 0.324 against 0.306 s at 120 (3), 0.458 against 0.573 s at 240 (17)
# and 0.808 against 1.247 s at 600 (20); so it pays from between 120 and 240.
TRACES_PER_PROCESS = 24


class CliError(Exception):
    pass


def _parse_subjects(spec: str | None, available: tuple[str, ...]) -> list[str]:
    if spec is None or spec == "all":
        return list(available)
    chosen: list[str] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            lo, hi = token.split("..", 1)
            try:
                start, stop = available.index(lo), available.index(hi)
            except ValueError:
                raise CliError(f"unknown subject in range {token!r}") from None
            if stop < start:
                raise CliError(f"empty subject range {token!r}")
            chosen.extend(available[start : stop + 1])
        else:
            if token not in available:
                raise CliError(
                    f"unknown subject {token!r}; available: {', '.join(available)}"
                )
            chosen.append(token)
    if not chosen:
        raise CliError("no subjects selected")
    repeated = [sid for i, sid in enumerate(chosen) if sid in chosen[:i]]
    if repeated:
        raise CliError(f"subject {repeated[0]!r} selected more than once")
    return chosen


def _parse_seeds(spec: str, ranged: bool) -> range:
    """The seeds of ``--seed``: a non-negative integer or, where ``ranged``,
    a range ``a..b`` of them that is not empty."""
    ends = spec.split("..", 1) if ranged else [spec]
    try:
        if all(end.isascii() and end.isdigit() for end in ends) and int(ends[0]) <= int(ends[-1]):
            return range(int(ends[0]), int(ends[-1]) + 1)
    except ValueError:  # more digits than int() reads
        pass
    rule = "a non-negative integer" + (" or a range a..b of them, a <= b" if ranged else "")
    raise CliError(f"--seed must be {rule}, got {spec!r}")


def _resolve_config_path(arg: str | None) -> Path | None:
    if arg:
        return Path(arg)
    env = os.environ.get(ENV_CONFIG)
    return Path(env) if env else None


def _effective_config(args) -> dict:
    from . import config as cfgmod

    cfg = cfgmod.load_config(_resolve_config_path(args.config))
    overrides: dict[str, object] = {}
    for item in args.set or []:
        if "=" not in item:
            raise CliError(f"override must look like section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    flags = {"noise_sigma": "trial.noise_sigma_n", "magnet": "coupling.magnet",
             "tendon_config": "network.kind"}
    for flag, key in flags.items():  # each as parsed, so a flag and a --set agree
        if getattr(args, flag, None) is not None:
            overrides[key] = getattr(args, flag)
    return cfgmod.apply_overrides(cfg, overrides)


def _cmd_simulate(args) -> int:
    from .config import Bench, config_hash
    from .traceio import write_trace

    bench = Bench(_effective_config(args))
    chash = config_hash(bench.config)  # of a config that the bench has checked
    subjects = _parse_subjects(args.subjects, tuple(bench.trial_configs))
    (seed,) = _parse_seeds(args.seed, ranged=False)

    out = Path(args.out)
    written = []
    for profile, t_idx, trace in bench.trials(seed, args.trials, subjects):
        name = f"{profile.subject_id}_{trace.network}_t{t_idx:02d}.csv"
        written.append(write_trace(trace, out / name, config_hash=chash))
    for path in written:
        print(path)
    return 0


def _analyze_trace(path: Path, out: Path, analysis) -> tuple[list[str], AnalysisReport]:
    """Read, analyze and write the report files of one trace; returns its
    warnings and the report that ``write_report`` returns."""
    from .analysis import analyze
    from .traceio import read_trace, write_report

    trace, warnings = read_trace(path)
    return warnings, write_report(analyze(trace, label=path.stem, **analysis), out)


def _analyze_share(paths: list[Path], out: Path, analysis) -> list:
    """``_analyze_trace`` over ``paths`` in order, up to the first trace that
    fails, whose error message ends the list."""
    outcomes: list = []
    for path in paths:
        try:
            outcomes.append(_analyze_trace(path, out, analysis))
        except (OSError, ValueError) as err:
            outcomes.append(str(err))
            break
    return outcomes


def _fork(fn, *args) -> tuple[int, int]:
    """Call ``fn(*args)`` in a forked child; returns the child's pid and the
    read end of the pipe that carries its pickled result.  The child leaves
    with ``os._exit``, so it never flushes the parent's stdio or runs its
    atexit hooks, and it writes nothing if ``fn`` raises."""
    import pickle

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(fn(*args), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, read_fd: int):
    """The result of a child from ``_fork`` once it has exited; None if it
    ended without one."""
    import pickle

    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    return pickle.loads(data) if status == 0 and data else None


def _cmd_analyze(args) -> int:
    from .analysis import batch_report
    from .config import Bench
    from .traceio import FIT_SUFFIX, write_text_atomic

    # A fit CSV is analyze's own output: a directory's are passed over, and
    # one named on the command line is skipped with a warning.
    paths: list[Path] = []
    for raw in args.inputs:
        p = Path(raw)
        if p.is_dir():
            paths.extend(sorted(
                c for c in p.glob("*.csv") if c.is_file() and not c.name.endswith(FIT_SUFFIX)
            ))
        elif not p.exists():
            raise CliError(f"no such trace file or directory: {p}")
        elif p.name.endswith(FIT_SUFFIX):
            print(f"warning: {p}: skipped, analyze writes files named *{FIT_SUFFIX}",
                  file=sys.stderr)
        else:
            paths.append(p)
    if not paths:
        raise CliError("no trace CSVs to analyze")
    # A trace's report files are named after its stem, so two traces with one
    # stem would write the same files; a stem that is not UTF-8 cannot be
    # written into its report.
    first: dict[str, Path] = {}
    for p in paths:
        try:
            p.stem.encode("utf-8")
        except UnicodeEncodeError:
            raise CliError(f"trace file name is not UTF-8: {os.fsencode(p)}") from None
        if first.setdefault(p.stem, p) is not p:
            raise CliError(f"two traces named {p.stem}: {first[p.stem]} and {p}")
    bench = Bench(_effective_config(args))
    out = Path(args.out)

    # Contiguous shares, one per usable CPU; the first stays in this process
    # and each other runs in a forked child.  ``main`` has loaded every module
    # that _analyze_trace uses, so no child imports one again; in a CLI
    # process they are frozen, so a child's collections do not copy their pages.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = max(1, min(cpus, len(paths) // TRACES_PER_PROCESS))
    shares = [paths[len(paths) * i // n : len(paths) * (i + 1) // n] for i in range(n)]
    children: list[tuple[int, int]] = []
    results: list = []
    try:
        for share in shares[1:]:
            children.append(_fork(_analyze_share, share, out, bench.analysis))
        results.append(_analyze_share(shares[0], out, bench.analysis))
    finally:
        results += [_reap(pid, fd) for pid, fd in children]

    reports = []
    for share, outcomes in zip(shares, results):
        if outcomes is None:
            raise CliError(
                f"the analysis of {share[0].name} to {share[-1].name} ended without a result"
            )
        for outcome in outcomes:
            if isinstance(outcome, str):
                raise CliError(outcome)
            warnings, report = outcome
            for w in warnings:
                print(f"warning: {w}", file=sys.stderr)
            reports.append(report)
    text = batch_report(reports).render()
    write_text_atomic(out / "summary.txt", text)
    # A label is a trace's file-name stem, which the terminal's encoding may
    # not hold; such a character is printed as its escape.
    encoding = sys.stdout.encoding or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding), end="")
    return 0


def _cmd_calibrate(args) -> int:
    from .config import Bench, config_hash, write_config
    from .spasticity import calibrate_stiffness
    from .tendons import index_excursion_mm

    bench = Bench(_effective_config(args))
    target, travel = bench.excursion_target_mm, bench.effective_travel_mm
    calibrated = bench.calibrated()
    depth = calibrated.hand.depth_mm
    excursion = index_excursion_mm(calibrated.hand, bench.extension)

    derived = {**calibrated.config, "subjects": {}}
    provenance = [
        f"exosim calibrate {TOOL_VERSION}",
        f"config: {config_hash(bench.config)}",
        f"joint_center_depth_mm = {depth:.6f} "
        f"(index extension excursion {excursion:.4f} mm, target {target} mm)",
    ]
    for profile in bench.bank:
        sid = profile.subject_id
        entry = dict(bench.config["subjects"][sid])
        band = profile.peak_band_n
        if band and band[1] is not None:
            midpoint = 0.5 * band[0] + 0.5 * band[1]  # their sum may overflow
            entry["stiffness_n_per_mm"] = calibrate_stiffness(
                midpoint, travel, profile.engage_slack_mm
            )
            provenance.append(
                f"subject {sid}: stiffness for a {midpoint:g} N peak over "
                f"{travel:g} mm of effective travel"
            )
        else:
            provenance.append(f"subject {sid}: stiffness kept as configured")
        derived["subjects"][sid] = entry

    out = Path(args.out) / "calibrated_config.yaml"
    write_config(derived, out, provenance)
    print(out)
    return 0


def _cmd_reproduce(args) -> int:
    from .config import Bench, config_hash
    from .reproduce import run_reproduction

    bench = Bench(_effective_config(args))
    chash = config_hash(bench.config)  # of a config that the bench has checked
    seeds = _parse_seeds(args.seed, ranged=True)
    sweep = run_reproduction(
        bench, args.out, seeds, trials_per_subject=args.trials, config_hash=chash
    )
    for seed, checks, manifest in sweep:
        prefix = f"[seed {seed}] " if len(sweep) > 1 else ""
        for c in checks:
            print(prefix + c.line())
        print(prefix + f"manifest: {manifest}")
    return 0 if all(c.passed for _, checks, _ in sweep for c in checks) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exosim",
        description="Simulator and analysis bench for a tendon-driven hand orthosis.",
    )
    parser.add_argument("--version", action="version", version=f"exosim {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_out: str) -> None:
        p.add_argument("--config", help=f"config file (default: ${ENV_CONFIG} or built-ins)")
        p.add_argument("--out", default=default_out, help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key, e.g. trial.noise_sigma_n=0.2")

    p_sim = sub.add_parser("simulate", help="run trials and write trace CSVs")
    common(p_sim, "exosim_out/traces")
    p_sim.add_argument("--seed", default="0", help="a non-negative integer")
    p_sim.add_argument("--subjects", default="all",
                       help="comma list and/or ranges, e.g. S1,S3 or S1..S5")
    p_sim.add_argument("--trials", type=int, default=1, help="trials per subject")
    p_sim.add_argument("--magnet", choices=["standard", "strong"],
                       help="one coupling for all subjects (sets coupling.magnet)")
    p_sim.add_argument("--noise-sigma", type=float, help="sensor noise sigma, N")
    p_sim.add_argument("--tendon-config", choices=["extension", "pinch"],
                       help="which tendon network to drive")

    p_an = sub.add_parser("analyze", help="force-position analysis of trace CSVs")
    common(p_an, "exosim_out/analysis")
    p_an.add_argument("inputs", nargs="+", help="trace CSV files or directories")

    p_cal = sub.add_parser("calibrate", help="solve model parameters, write derived config")
    common(p_cal, "exosim_out/calibration")

    p_rep = sub.add_parser("reproduce", help="rerun the campaign with self-checks")
    common(p_rep, "exosim_out/reproduction")
    p_rep.add_argument("--seed", default="0", help="base seed or range, e.g. 1..20")
    p_rep.add_argument("--trials", type=int, default=1, help="trials per subject")
    p_rep.add_argument("--magnet", choices=["standard", "strong"],
                       help="one coupling for all subjects (sets coupling.magnet)")
    p_rep.add_argument("--noise-sigma", type=float, help="sensor noise sigma, N")

    return parser


# Each command and the modules it runs, in the order it imports them,
# which ``main`` imports before the command starts.  The order matters: a
# different one moved analyze's peak RSS by 0.1 MB.  numpy.random (for the
# trial seeds) and hashlib (for the config hash) still load when first used:
# loaded here, before the config is read, they raised simulate's peak RSS by
# 0.2-0.4 MB, with the same exit time.  No command loads PyYAML: exosim reads
# and writes its YAML itself (``yamlio``).
_COMMANDS = {
    "simulate": (_cmd_simulate, (".config", ".traceio")),
    "analyze": (_cmd_analyze, (".analysis", ".config", ".traceio")),
    "calibrate": (_cmd_calibrate, (".config", ".traceio")),
    "reproduce": (_cmd_reproduce, (".config", ".reproduce")),
}


def main(argv: list[str] | None = None) -> int:
    # Only a process whose numpy is still to load: an in-process caller's
    # environment, and a value the user set, are left as they are.
    if "numpy" not in sys.modules:
        for var in BLAS_THREAD_VARS:
            os.environ.setdefault(var, "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage errors; fold
        # usage errors into the validation-error code.
        return 0 if exc.code in (0, None) else 1
    command, modules = _COMMANDS[args.command]
    for name in modules:
        importlib.import_module(name, __package__)
    if argv is None:
        # A CLI process: what it has loaded lives until it exits, so take it
        # out of the collector's reach.  The collector stays on for what the
        # command makes, but neither a full collection nor the interpreter's
        # last one at exit walks the loaded modules (exit took 42-50 ms per
        # command, 12-15 ms frozen, on a 2-CPU Xeon), and a forked analyze
        # child copies none of their pages.  An in-process caller's collector
        # is left as it is.
        gc.freeze()
        # numpy.random's hmac and the config hash's hashlib load OpenSSL (3.4 MB
        # of peak RSS) only for what the interpreter has built in, so where it
        # has its own SHA-256 (the same digest) a CLI process refuses _hashlib.
        if importlib.util.find_spec("_sha2" if sys.version_info >= (3, 12) else "_sha256"):
            sys.modules.setdefault("_hashlib", None)
    try:
        return command(args)
    except (CliError, OSError, ValueError) as err:  # ConfigError is a ValueError
        # One line, though a message may quote several (an override's text may).
        print("error:", " ".join(str(err).splitlines()), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
