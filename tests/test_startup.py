"""What a process loads: ``import exosim`` and the CLI answers that run no
command load no numpy, ``analyze`` loads neither OpenSSL nor the campaign,
the default config does not depend on import order, and the CLI caps BLAS
threads only for a numpy still to load.  Each check of what loads runs in a
fresh interpreter, since this one has loaded everything."""

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


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with exosim on its path; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str, *modules: str) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after running ``code``."""
    report = f"\nimport json, sys\nprint(json.dumps([m for m in {modules!r} if m in sys.modules]))"
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
    assert loaded_after(run, "numpy", "yaml", "exosim.config") == []


def test_each_command_loads_only_what_it_runs(tmp_path):
    """``analyze`` loads the analysis, but not hashlib (which maps OpenSSL)
    nor the campaign; ``simulate`` and ``calibrate`` load no campaign."""
    traces = tmp_path / "traces"
    assert cli.main(["simulate", "--out", str(traces), "--subjects", "S1,S4"]) == 0
    watched = ("exosim.analysis", "hashlib", "_hashlib", "exosim.reproduce")
    run = (
        "from exosim.cli import main\n"
        f"assert main(['analyze', {str(traces)!r}, '--out', {str(tmp_path / 'an')!r}]) == 0"
    )
    assert loaded_after(run, *watched) == ["exosim.analysis"]
    run = (
        "from exosim.cli import main\n"
        f"assert main(['simulate', '--out', {str(tmp_path / 'sim')!r}]) == 0\n"
        f"assert main(['calibrate', '--out', {str(tmp_path / 'cal')!r}]) == 0"
    )
    assert "exosim.reproduce" not in loaded_after(run, *watched)


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
