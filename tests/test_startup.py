"""What a process loads: ``import exosim`` and the CLI answers that run no
command load no numpy (nor pickle), ``analyze`` loads neither OpenSSL nor the
campaign, no command loads PyYAML, to read YAML or to write it, no command
loads ``dataclasses``, a CLI process freezes what its command loaded and
refuses OpenSSL where the interpreter has its own SHA-256, the
default config does not depend on import order, and the CLI caps BLAS
threads only for a numpy still to load.  Each check of what loads runs in a fresh interpreter, since this one
has loaded everything."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exosim
from exosim import cli, trial
from exosim.config import config_hash, default_config

SRC = Path(exosim.__file__).resolve().parent.parent
# The module of the interpreter's own SHA-256, which hashlib takes without OpenSSL.
SHA256_MODULE = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
BUILTIN_SHA256 = importlib.util.find_spec(SHA256_MODULE) is not None


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with exosim on its path; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str, *modules: str) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after running ``code``;
    a ``None`` entry in ``sys.modules`` is an import refused, not a module."""
    report = (
        "\nimport json, sys\n"
        f"print(json.dumps([m for m in {modules!r} if sys.modules.get(m) is not None]))"
    )
    return json.loads(run_python(code + report).splitlines()[-1])


def test_import_exosim_loads_no_submodule():
    assert loaded_after("import exosim", "numpy", "yaml", "exosim.config") == []


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--version"], 0),
        (["--help"], 0),
        (["simulate", "--help"], 0),
        ([], 1),  # no command
        (["simulate", "--trials", "two"], 1),
        (["analyze"], 1),  # no input
    ],
)
def test_cli_answers_without_a_command_load_no_numpy(argv, code):
    run = f"from exosim.cli import main\nassert main({argv!r}) == {code}"
    assert loaded_after(run, "numpy", "yaml", "exosim.config", "pickle") == []


def cli_process(argv: list[str], *modules: str, before: str = "", after: str = "") -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after ``main`` has run
    ``argv`` as a CLI process does, reading sys.argv; ``before`` runs first
    and ``after`` last."""
    run = (
        f"import sys\nfrom exosim import cli\n{before}\n"
        f"sys.argv = ['exosim', *{argv!r}]\n"
        f"assert cli.main() == 0\n{after}"
    )
    return loaded_after(run, *modules)


def test_each_command_loads_only_what_it_runs(tmp_path):
    """``analyze``, run as a CLI process that forks, loads the analysis but
    not hashlib nor numpy.random (both map OpenSSL) nor the campaign;
    ``simulate`` and ``calibrate`` load no campaign; no command loads
    OpenSSL where the interpreter has its own SHA-256; and no command loads
    PyYAML, though it reads sidecars, a config file or a typed ``--set``."""
    traces = tmp_path / "traces"
    assert cli.main(["simulate", "--out", str(traces), "--subjects", "S1,S4"]) == 0
    watched = ("exosim.analysis", "hashlib", "_hashlib", "numpy.random", "exosim.reproduce",
               "yaml")
    split = (  # two shares, so analyze forks once
        "import os\n"
        "forks = []\n"
        "fork = cli._fork\n"
        "cli._fork = lambda *args: forks.append(args) or fork(*args)\n"
        "cli.TRACES_PER_PROCESS = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}"
    )
    analyze = ["analyze", str(traces), "--out", str(tmp_path / "an")]
    assert cli_process(analyze, *watched, before=split, after="assert len(forks) == 1") == [
        "exosim.analysis"
    ]
    config = tmp_path / "calibrate" / "calibrated_config.yaml"  # written by the calibrate run
    for argv in (["simulate", "--tendon-config", "pinch"], ["simulate", "--noise-sigma", "0.3"],
                 ["simulate", "--set", "trial.noise_sigma_n=0.3"], ["calibrate"], ["reproduce"],
                 ["simulate", "--config", str(config)]):
        out = tmp_path / "_".join(arg.strip("-") for arg in argv[:2])
        loaded = cli_process([*argv, "--out", str(out)], "yaml", "exosim.reproduce", "_hashlib")
        expected = ["exosim.reproduce"] if argv == ["reproduce"] else []
        assert loaded == expected + ([] if BUILTIN_SHA256 else ["_hashlib"])
    sidecar = tmp_path / "simulate_set" / "S1_extension_t00.meta.yaml"
    assert "noise_sigma_n: 0.3\n" in sidecar.read_text()


@pytest.mark.skipif(not BUILTIN_SHA256, reason="no builtin SHA-256: OpenSSL stays loadable")
def test_a_cli_process_stamps_the_hash_of_an_openssl_run(tmp_path):
    """A CLI process, which refuses OpenSSL, hashes the config with the
    interpreter's own SHA-256: the hash that this process, which loaded
    OpenSSL, stamps for the same config."""
    assert cli.main(["simulate", "--subjects", "S1", "--out", str(tmp_path / "in")]) == 0
    assert sys.modules.get("_hashlib") is not None
    argv = ["simulate", "--subjects", "S1", "--out", str(tmp_path / "cli")]
    assert cli_process(argv, "_hashlib", "hashlib") == ["hashlib"]
    sidecar = "S1_extension_t00.meta.yaml"
    stamped = [(tmp_path / run / sidecar).read_text() for run in ("in", "cli")]
    assert stamped[0] == stamped[1]
    assert f"config_hash: {config_hash(default_config())}\n" in stamped[1]
    assert config_hash(default_config()) == "a28b7240be85"


def test_a_cli_process_without_a_builtin_sha256_keeps_openssl(tmp_path):
    """Where ``importlib.util.find_spec`` finds no builtin SHA-256, a CLI
    process leaves ``_hashlib`` loadable, and hashlib loads it."""
    before = (
        "import importlib.util\n"
        "find_spec = importlib.util.find_spec\n"
        "importlib.util.find_spec = lambda name, *args: (\n"
        f"    None if name == {SHA256_MODULE!r} else find_spec(name, *args))"
    )
    argv = ["simulate", "--subjects", "S1", "--out", str(tmp_path / "out")]
    assert cli_process(argv, "_hashlib", before=before, after="import hashlib") == ["_hashlib"]


def test_a_double_quoted_document_is_written_without_pyyaml(tmp_path):
    """exosim writes every document itself, a string that is not a plain
    word double-quoted and escaped, and reads it back; PyYAML stays
    unloaded."""
    path = tmp_path / "notes.yaml"
    run = (
        "from exosim.config import default_config, load_config, write_config\n"
        "cfg = default_config()\n"
        "cfg['subjects']['S1']['notes'] = 'grip: \"weak\", caf\u00e9'\n"
        f"write_config(cfg, {str(path)!r})\n"
        f"assert load_config({str(path)!r}) == cfg\n"
    )
    assert loaded_after(run, "yaml") == []
    assert '  notes: "grip: \\x22weak\\x22, caf\\xE9"\n' in path.read_text()


def test_no_command_loads_dataclasses(tmp_path):
    """Every record is a NamedTuple or a plain class, so no command, a split
    ``analyze`` included, pays for ``dataclasses`` building classes."""
    traces = str(tmp_path / "traces")
    run = (
        "import os\n"
        "from exosim import cli\n"
        "forks = []\n"
        "fork = cli._fork\n"
        "cli._fork = lambda *args: forks.append(args) or fork(*args)\n"
        "cli.TRACES_PER_PROCESS = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        f"assert cli.main(['simulate', '--out', {traces!r}, '--subjects', 'S1,S4']) == 0\n"
        f"assert cli.main(['analyze', {traces!r}, '--out', {str(tmp_path / 'an')!r}]) == 0\n"
        "assert len(forks) == 1\n"
        f"assert cli.main(['calibrate', '--out', {str(tmp_path / 'cal')!r}]) == 0\n"
        f"assert cli.main(['reproduce', '--out', {str(tmp_path / 'rep')!r}]) == 0\n"
    )
    assert loaded_after(run, "dataclasses", "exosim.reproduce") == ["exosim.reproduce"]


@pytest.mark.parametrize("command", ["simulate", "analyze", "calibrate", "reproduce"])
def test_a_cli_process_freezes_what_its_command_runs(tmp_path, command):
    """``main`` reading sys.argv, as the console script and ``python -m
    exosim.cli`` do, freezes the collector once, after the command has loaded
    every exosim module it runs (none loads later), and leaves the collector
    on.  numpy.random and hashlib may load later, where they are first used."""
    args = [command, "--out", str(tmp_path / "out")]
    if command == "analyze":
        assert cli.main(["simulate", "--out", str(tmp_path / "traces")]) == 0
        args.append(str(tmp_path / "traces"))
    run = (
        "import gc, json, sys\n"
        "from exosim.cli import main\n"
        "freeze, at_freeze = gc.freeze, []\n"
        "gc.freeze = lambda: at_freeze.append(set(sys.modules)) or freeze()\n"
        f"sys.argv = ['exosim', *{args!r}]\n"
        "assert gc.get_freeze_count() == 0 and main() == 0\n"
        "later = [m for m in set(sys.modules) - at_freeze[0] if m.startswith('exosim')]\n"
        "print(json.dumps([len(at_freeze), later, gc.get_freeze_count() > 0, gc.isenabled()]))"
    )
    assert json.loads(run_python(run).splitlines()[-1]) == [1, [], True, True]


def test_default_analysis_section_survives_a_wrapped_analyze():
    """A wrapper put in ``analysis.analyze``'s place before ``exosim.config``
    is first imported (as a tracer does) hides analyze's keywords; the default
    config reads them as analysis recorded them, so neither it nor its hash
    changes."""
    run = (
        "import json, sys\n"
        "from exosim import analysis\n"
        "assert 'exosim.config' not in sys.modules\n"
        "original = analysis.analyze\n"
        "analysis.analyze = lambda *args, **kwargs: original(*args, **kwargs)\n"
        "from exosim.config import config_hash, default_config\n"
        "cfg = default_config()\n"
        "print(json.dumps([cfg['analysis'], config_hash(cfg)]))"
    )
    section, digest = json.loads(run_python(run))
    assert section == default_config()["analysis"] != {}
    assert digest == config_hash(default_config()) == "a28b7240be85"


def test_package_names_resolve_lazily():
    from exosim import run_trial

    assert run_trial is trial.run_trial
    assert exosim.__version__ == exosim.TOOL_VERSION == "0.1.0"
    public = [name for name in dir(exosim) if not name.startswith("_")]
    assert {"Bench", "analyze", "run_trial", "TOOL_VERSION"} <= set(public)
    for name in public:
        getattr(exosim, name)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        exosim.nope  # noqa: B018


@pytest.fixture
def environ(monkeypatch):
    """A private copy of the environment without the BLAS variables."""
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
    monkeypatch.setattr(os, "environ", env)
    return env


def test_main_caps_unset_blas_threads_before_numpy_loads(monkeypatch, environ):
    environ["OPENBLAS_NUM_THREADS"] = "3"  # the user's own value stays
    monkeypatch.delitem(sys.modules, "numpy")
    assert cli.main(["--version"]) == 0
    assert {var: environ.get(var) for var in cli.BLAS_THREAD_VARS} == {
        var: "3" if var == "OPENBLAS_NUM_THREADS" else "1" for var in cli.BLAS_THREAD_VARS
    }


def test_main_leaves_the_environment_once_numpy_is_loaded(environ):
    assert "numpy" in sys.modules
    before = dict(environ)
    assert cli.main(["--version"]) == 0
    assert environ == before
