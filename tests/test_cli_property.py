"""Property tests of the command line: any ``--set`` value and any trace
bytes end in exit 0, or in exit 1 with one ``error:`` line on stderr.  No run
ends in a traceback, with every warning an error, and no trace written holds
a non-finite number.

No drawn config asks for a long trial that is still allowed: the ordinary
numbers are few and moderate, so a trial either stays short or asks for more
than MAX_SAMPLES samples, which ``trial_sample_count`` refuses before
anything is allocated.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from exosim.cli import main
from exosim.config import default_config


def _dotted_keys(node, prefix=""):
    """Every section and leaf key of a config, dotted."""
    for key, value in node.items():
        path = f"{prefix}{key}"
        yield path
        if isinstance(value, dict):
            yield from _dotted_keys(value, path + ".")


KEYS = sorted(_dotted_keys(default_config())) + [
    "subjects.S1.rest_flexion_fraction.foo",
    "subjects.S3.rest_flexion_fraction.index",
    "subjects.S6.mas",
    "hand.flexion_ranges_deg.finger_knuckle",
    "nonsense",
]
ORDINARY = ["0", "-1", "0.5", "1", "2.5", "10", "45", "100"]
EXTREME = ["1e308", "-1e308", "1.7976931348623157e+308", "1e300", "1e154", "1e-300",
           "1e-310", "5e-324", "-5e-324"]
NON_FINITE = [".inf", "-.inf", ".nan", "inf", "nan", "1e999"]
WRONG = ["", "null", "~", "true", "foo", "[]", "{}", "[1, 2]", "[0, 1e308]", "[-1e308, 1e308]",
         "[1e-310, 1e308]", "{index: 0.5}", "{foo: 1}", "[1", "{a: [", "2019-01-01", "0x10",
         "1:30", "!!binary aGk=", "!!python/object:os.system", "'1'", "\"nan\"", "1 2",
         "1" + "0" * 400, "{index: {index: 0.5}}", "&a {index: *a}", "!!binary MQ=="]
VALUES = st.one_of(
    st.sampled_from(ORDINARY + EXTREME + NON_FINITE + WRONG),
    st.integers(min_value=-100, max_value=100).map(str),
    st.text(max_size=8),
)


def _run(argv):
    """``main(argv)`` with every warning an error; returns the exit code and
    the stderr lines."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue().splitlines()


def _check_outcome(code, lines):
    errors = [line for line in lines if not line.startswith("warning: ")]
    if code == 0:
        assert errors == []
    else:
        assert code == 1
        assert len(errors) == 1 and errors[0].startswith("error: "), lines


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["simulate", "calibrate"]),
    overrides=st.lists(st.tuples(st.sampled_from(KEYS), VALUES), min_size=1, max_size=2),
)
# Each of these overflowed inside a trial, past the config's checks.
@example(command="simulate", overrides=[("load_cell.range_max_n", "1e308")])
@example(command="simulate", overrides=[("load_cell.resolution_n", "1e-310")])
@example(command="simulate", overrides=[("hand.joint_center_depth_mm", "1e308")])
@example(command="simulate", overrides=[("subjects.S1.stiffness_n_per_mm", "1e308")])
# A force above a 1 N full scale, divided by a resolution of 1e-308.
@example(command="simulate",
         overrides=[("load_cell.range_max_n", "1"), ("load_cell.resolution_n", "1e-308")])
def test_any_set_value_exits_cleanly(command, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [command, "--out", str(out)] + [f"--set={k}={v}" for k, v in overrides]
        if command == "simulate":
            argv += ["--subjects", "S1", "--trials", "1"]
        code, lines = _run(argv)
        _check_outcome(code, lines)
        for trace in out.glob("*.csv"):
            body = trace.read_text(encoding="utf-8").lower()
            assert "nan" not in body and "inf" not in body, trace.name


_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(ORDINARY + EXTREME + NON_FINITE),
    st.text(alphabet="0123456789.-+eE_ nai", max_size=6),
)
_ROWS = st.lists(
    st.one_of(
        st.lists(_NUMBERS, min_size=3, max_size=3).map(",".join),
        st.lists(_NUMBERS, min_size=0, max_size=4).map(",".join),
        st.sampled_from(["", "#", "t_s,actuator_mm,force_N", "# seed: 1"]),
        st.text(max_size=12),
    ),
    max_size=30,
)
TRACE_BYTES = st.one_of(
    _ROWS.map(lambda rows: "\n".join(["t_s,actuator_mm,force_N"] + rows).encode()),
    _ROWS.map(lambda rows: "\n".join(rows).encode()),
    st.binary(max_size=200),
)


@settings(max_examples=150, deadline=None)
@given(data=TRACE_BYTES)
def test_any_trace_bytes_exit_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "t.csv"
        trace.write_bytes(data)
        code, lines = _run(["analyze", str(trace), "--out", str(Path(tmp) / "out")])
        _check_outcome(code, lines)
