"""The trace reader and the one-call renders against the line-at-a-time
code they replaced, kept here as oracles: same arrays bit for bit, same
warnings in the same order, same bytes.  Every warning is an error here, so
an empty body cannot leak numpy's "input contained no data"."""

from __future__ import annotations

import math
import os
import stat
import timeit
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from exosim import traceio
from exosim.analysis import AnalysisReport, analyze
from exosim.traceio import CSV_HEADER, read_trace, render_fit_csv, render_trace_csv
from exosim.trial import TrialConfig, TrialTrace, run_trial

# libcst, which hypothesis loads to print a failing example, warns on import.
pytestmark = pytest.mark.filterwarnings("error", "ignore::DeprecationWarning:libcst")

# --- oracles: the reader and renders as they were, one line at a time ------------


def oracle_read_rows(csv_path: Path):
    """``(t, position, force, warnings)`` as the line-loop reader gave them,
    plus the later rule that a row whose time is not above the last kept
    row's is dropped."""
    warnings: list[str] = []
    t: list[float] = []
    position: list[float] = []
    force: list[float] = []
    header_seen = False
    for lineno, line in enumerate(csv_path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not header_seen:
            if stripped != CSV_HEADER:
                warnings.append(f"{csv_path.name}:{lineno}: unexpected header {stripped!r}")
            header_seen = True
            continue
        parts = stripped.split(",")
        if len(parts) != 3:
            warnings.append(f"{csv_path.name}:{lineno}: expected 3 columns, got {len(parts)}")
            continue
        try:
            values = [float(p) for p in parts]
        except ValueError:
            warnings.append(f"{csv_path.name}:{lineno}: non-numeric row {stripped!r}")
            continue
        if not all(map(math.isfinite, values)):
            warnings.append(f"{csv_path.name}:{lineno}: non-finite row {stripped!r}")
            continue
        if t and values[0] <= t[-1]:
            warnings.append(f"{csv_path.name}:{lineno}: non-increasing time in row {stripped!r}")
            continue
        t.append(values[0])
        position.append(values[1])
        force.append(values[2])
    return np.asarray(t), np.asarray(position), np.asarray(force), warnings


def oracle_render_trace_csv(trace: TrialTrace, *, config_hash: str = "") -> str:
    seed_text = "-" if trace.seed is None else str(trace.seed)
    rows = [
        f"{t:.6f},{p:.6f},{f:.6f}"
        for t, p, f in zip(trace.t_s, trace.actuator_mm, trace.force_n)
    ]
    header = traceio._header_lines(seed_text, config_hash)
    return header + CSV_HEADER + "\n" + "\n".join(rows) + "\n"


def oracle_render_fit_csv(report: AnalysisReport) -> str:
    fitted = report.fitted_frac()
    lines = ["position_frac,force_frac,fitted_frac"]
    if report.position_frac is not None:
        if fitted is None:
            fitted = np.full_like(report.position_frac, np.nan)
        for x, y, z in zip(report.position_frac, report.force_frac, fitted):
            lines.append(f"{x:.6f},{y:.6f},{z:.6f}")
    return "\n".join(lines) + "\n"


# --- the reader -------------------------------------------------------------------

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e4, 1e4).map("{:.6f}".format),
    st.floats(allow_subnormal=True, width=64).map("{:.17g}".format),
    st.integers(-(10**20), 10**20).map(str),
    st.from_regex(r"[+-]?[0-9]{1,25}(\.[0-9]{0,25})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
)
ODD_FIELDS = st.sampled_from(
    ["nan", "inf", "-inf", "+Infinity", "1e999", "1_0", "1__0", "oops", "", " ", "-",
     "0x10", "1.5 ", " 2", "\xa03", "٣", "4\x1f", "\x1f5", "6\x00", "1 2", "#"]
)
FIELDS = st.one_of(NUMBERS, NUMBERS, ODD_FIELDS)
PAD = st.sampled_from(["", "", " ", "\t", "  \t", "\x1f", "\xa0"])


@st.composite
def rows(draw):
    n = draw(st.sampled_from([3, 3, 3, 3, 2, 4, 1]))
    return draw(PAD) + ",".join(draw(st.lists(FIELDS, min_size=n, max_size=n))) + draw(PAD)


LINES = st.one_of(
    rows(),
    rows(),
    rows(),
    st.sampled_from(
        ["", "   ", "\t", "# exosim 0.1.0", "# seed: 3", "#a,b,c", "  # x,y,z", "#",
         CSV_HEADER, " t_s,actuator_mm,force_N\t", "t_s,actuator_mm", "time,pos,force"]
    ),
)
HEADERS = st.sampled_from(
    [[CSV_HEADER], [CSV_HEADER], ["# exosim 0.1.0", "# seed: -", CSV_HEADER],
     ["t,x,f"], ["T_S,ACTUATOR_MM,FORCE_N"], [], ["", "  ", CSV_HEADER]]
)
SEPARATORS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\f", "\x1c", "\x1e", "\x85",
                              " ", "\v"])


@st.composite
def csv_texts(draw):
    lines = draw(HEADERS) + draw(st.lists(LINES, max_size=40))
    seps = draw(st.lists(SEPARATORS, min_size=len(lines), max_size=len(lines)))
    ending = draw(st.sampled_from(["", "", "\n", "\n\n"]))
    return "".join(line + sep for line, sep in zip(lines, seps)) + ending


@pytest.fixture(scope="module")
def csv_file(tmp_path_factory):
    return tmp_path_factory.mktemp("traceio") / "trace.csv"


def assert_reads_like_oracle(path: Path) -> None:
    expected = oracle_read_rows(path)
    trace, warnings = read_trace(path)
    for got, want in zip((trace.t_s, trace.actuator_mm, trace.force_n), expected):
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert warnings == expected[3]


@settings(max_examples=250, deadline=None)
@given(text=csv_texts())
@example(text="")
@example(text=CSV_HEADER + "\n")
@example(text=CSV_HEADER + "\n\n\n  \n\n")  # a body of blank lines
@example(text="\n\n# only comments, 1, 2\n")
# No header: the row is taken for it.
@example(text="0.0,1.0,2.0\n")
# loadtxt reads "4\x1f" as 4.0, float rejects it.
@example(text=CSV_HEADER + "\n0.0,0.0,0.0\n0.0,4\x1f,0.0\n")
@example(text=CSV_HEADER + "\n1_0,2,3\n")  # float reads 10.0, loadtxt rejects it
@example(text=CSV_HEADER + "\n0.5,1,2\n1e999,1,2\n")
@example(text=CSV_HEADER + "\r\n0.5,1,2\r\n-1.5,2e3,+3\r\n")
@example(text=CSV_HEADER + "\r\n1_0,2,3\r\n#a,b,c\r\n1,2\f4,5,6,7\x1c-0.0,nan,1\n")
# A short row and a long row: two commas a row in all, but not in each.
@example(text=CSV_HEADER + "\n0,1,2\n1.0,2.0\n1,2,3\n1.0,2.0,3.0,4.0\n2,3,4\n")
# Every data line malformed: no rows are left for np.loadtxt, which would warn.
@example(text=CSV_HEADER + "\n1.0,2.0\noops,1,2\n\n# c\n1,2,3,4\n")
@example(text=CSV_HEADER + "\n0,1,2\n1.0,2.0\n1,,2\n# x\n3,4,5\n")  # loadtxt rejects 1,,2
@example(text=CSV_HEADER + "\n0,1,2\n5,1,2\noops,1,2\n4,1,2\n6,1,2\n")  # 4 is not above 5
@example(text=CSV_HEADER + "\n0,1,2\n1.0,2.0\n1_0,2,3\n20,2,3\n")  # a masked row float keeps
def test_read_trace_matches_line_loop_oracle(csv_file, text):
    csv_file.write_text(text, newline="")  # as written: no newline translation
    assert_reads_like_oracle(csv_file)


PLAIN = NUMBERS.filter(lambda cell: not cell.encode().translate(None, traceio._NUMBER_BYTES))
PLAIN_ROWS = st.lists(PLAIN, min_size=3, max_size=3).map(",".join)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(PLAIN_ROWS, min_size=1, max_size=40),
    ending=st.sampled_from(["", "\n", "\n\n"]),
)
def test_plain_bodies_read_in_one_call_like_the_oracle(csv_file, rows, ending):
    """Bodies of plain numbers only (long digit strings, subnormals, signs,
    exponents) reach ``np.loadtxt`` and read as ``float`` reads them."""
    csv_file.write_text(CSV_HEADER + "\n" + "\n".join(rows) + ending)
    with mock.patch("numpy.loadtxt", wraps=np.loadtxt) as loadtxt:
        assert_reads_like_oracle(csv_file)
    assert loadtxt.call_count == 1


def written_trace(tmp_path) -> Path:
    rng = np.random.default_rng(9)
    trace = TrialTrace(
        t_s=np.arange(1001) / 100.0,
        actuator_mm=rng.uniform(-50, 50, 1001),
        force_n=rng.normal(10, 40, 1001),
        seed=3,
    )
    return traceio.write_trace(trace, tmp_path / "t.csv", config_hash="a28b7240be85")


def test_written_trace_is_read_in_one_loadtxt_call(tmp_path):
    path = written_trace(tmp_path)
    with mock.patch("numpy.loadtxt", wraps=np.loadtxt) as loadtxt:
        assert_reads_like_oracle(path)
    assert loadtxt.call_count == 1


def test_a_trace_saved_with_a_byte_order_mark_reads_alike(tmp_path, noiseless_traces):
    """A UTF-8 byte-order mark, as spreadsheet tools save one, on a trace and
    on its sidecar changes nothing that is read."""
    plain = traceio.write_trace(noiseless_traces["S4"], tmp_path / "a.csv", config_hash="beef")
    marked = tmp_path / "b.csv"
    for source, copy in ((plain, marked), (traceio.sidecar_path(plain), traceio.sidecar_path(marked))):
        copy.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    (expected, expected_warnings), (trace, warnings) = read_trace(plain), read_trace(marked)
    assert expected_warnings == warnings == []
    for name, value in vars(expected).items():
        got = getattr(trace, name)
        if isinstance(value, np.ndarray):
            assert got.tobytes() == value.tobytes()
        else:
            assert got == value, name


def test_read_trace_matches_oracle_on_long_files(tmp_path):
    """Thousands of rows with faults scattered through them."""
    rng = np.random.default_rng(5)
    lines = ["# exosim 0.1.0", CSV_HEADER]
    for i in range(3000):
        lines.append(f"{i / 100:.6f},{50 - i / 60:.6f},{rng.normal(10, 4):.6f}")
    faults = ["oops,1.0,2.0", "1.0,2.0", "1.0,2.0,3.0,4.0", "nan,1,2", "# a,b,c", "", "1_0,2,3"]
    for at in sorted(rng.choice(len(lines), 40, replace=False), reverse=True):
        lines.insert(int(at) + 2, faults[int(at) % len(faults)])
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n")
    assert_reads_like_oracle(path)


def test_read_trace_reads_long_files_with_skipped_lines_in_one_call(tmp_path):
    """Thousands of rows with wrong-width, non-numeric, blank and comment
    lines scattered through them: each is skipped as the line loop skips it,
    and the rest is read in one ``np.loadtxt`` call."""
    rng = np.random.default_rng(6)
    lines = ["# exosim 0.1.0", CSV_HEADER]
    for i in range(3000):
        lines.append(f"{i / 100:.6f},{50 - i / 60:.6f},{rng.normal(10, 4):.6f}")
    faults = ["oops,1.0,2.0", "1.0,2.0", "1.0,2.0,3.0,4.0", " # a,b,c", "", "  ", "1,2,3,x"]
    for at in sorted(rng.choice(len(lines), 40, replace=False), reverse=True):
        lines.insert(int(at) + 2, faults[int(at) % len(faults)])
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n")
    with mock.patch("numpy.loadtxt", wraps=np.loadtxt) as loadtxt, \
            mock.patch.object(traceio, "_line_rows", wraps=traceio._line_rows) as line_rows:
        assert_reads_like_oracle(path)
    assert (loadtxt.call_count, line_rows.call_count) == (1, 0)


def test_a_long_file_of_padded_cells_reaches_the_line_loop_in_linear_time(tmp_path):
    """Cells written as ``0.0, 50.0, 0.0`` are read by ``float``, not by the
    one-call path, so every line of such a file is one that only the line
    loop reads.  Finding that out must cost less than the line loop itself:
    a search that rescans the body for each such line takes far longer on
    50 000 of them."""
    lines = [CSV_HEADER] + [f"{i / 100:.2f}, {50 - i / 2000:.4f}, 1.0" for i in range(50_000)]
    assert traceio._plain_rows(lines, "p.csv") is None
    plain = min(timeit.repeat(lambda: traceio._plain_rows(lines, "p.csv"), number=1, repeat=3))
    loop = min(timeit.repeat(lambda: traceio._line_rows(lines, "p.csv"), number=1, repeat=3))
    assert plain < loop
    path = tmp_path / "padded.csv"
    path.write_text("\n".join(lines) + "\n")
    assert_reads_like_oracle(path)


@pytest.mark.parametrize("comment", ["", "# a comment, blanked before np.loadtxt reads"])
def test_row_whose_time_does_not_increase_is_dropped(tmp_path, comment):
    """Swapping data rows 100 and 101 (file lines 105 and 106) puts a time
    below the one before it: that row is dropped with a ``file:line``
    warning.  The one-call path reads the body, a comment line blanked, and
    the time that does not increase sends the file to the line loop."""
    path = written_trace(tmp_path)
    lines = path.read_text().splitlines()
    assert lines[3] == CSV_HEADER
    lines[104], lines[105] = lines[105], lines[104]
    if comment:
        lines.insert(500, comment)
    path.write_text("\n".join(lines) + "\n")
    with mock.patch("numpy.loadtxt", wraps=np.loadtxt) as loadtxt, \
            mock.patch.object(traceio, "_line_rows", wraps=traceio._line_rows) as line_rows:
        trace, warnings = read_trace(path)
    assert (loadtxt.call_count, line_rows.call_count) == (1, 1)
    assert warnings == [f"t.csv:106: non-increasing time in row {lines[105]!r}"]
    assert len(trace) == 1000 and (np.diff(trace.t_s) > 0).all()
    assert_reads_like_oracle(path)


@pytest.mark.parametrize("row", ["1.0,2.0", "1.0,2.0,3.0,4.0", ",,,", "5"])
def test_body_with_a_row_of_another_width_is_read_in_one_loadtxt_call(tmp_path, row):
    """A row that does not have two commas is skipped with its warning, and
    the rest of the body is read in one ``np.loadtxt`` call."""
    path = written_trace(tmp_path)
    lines = path.read_text().splitlines()
    lines.insert(300, row)
    path.write_text("\n".join(lines) + "\n")
    with mock.patch("numpy.loadtxt", wraps=np.loadtxt) as loadtxt:
        assert_reads_like_oracle(path)
    assert loadtxt.call_count == 1


# --- the renders ------------------------------------------------------------------

VALUES = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, 0.0000005, -0.0000005, 2.5e-7]),
)


def columns(n: int):
    return st.lists(VALUES, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))


@st.composite
def traces(draw):
    n = draw(st.integers(0, 30))
    return TrialTrace(
        t_s=draw(columns(n)),
        actuator_mm=draw(columns(n)),
        force_n=draw(columns(n)),
        seed=draw(st.one_of(st.none(), st.integers(0, 99), st.just([7, 3, 0]))),
    )


@settings(max_examples=100, deadline=None)
@given(
    trace=traces(), config_hash=st.sampled_from(["", "a28b7240be85"]),
    block=st.sampled_from([1, 7, traceio.RENDER_BLOCK]),
)
@example(  # empty: a lone newline after the header
    trace=TrialTrace(t_s=np.empty(0), actuator_mm=np.empty(0), force_n=np.empty(0)),
    config_hash="", block=traceio.RENDER_BLOCK,
)
@example(
    trace=TrialTrace(
        t_s=np.array([-0.0, 1e300]), actuator_mm=np.array([-1e-9, np.nan]),
        force_n=np.array([np.inf, -np.inf]),
    ),
    config_hash="", block=traceio.RENDER_BLOCK,
)
def test_render_trace_csv_matches_oracle(trace, config_hash, block):
    """The same bytes whatever the number of rows rendered at once."""
    expected = oracle_render_trace_csv(trace, config_hash=config_hash)
    with mock.patch.object(traceio, "RENDER_BLOCK", block):
        assert render_trace_csv(trace, config_hash=config_hash) == expected


@st.composite
def reports(draw):
    n = draw(st.integers(0, 30))
    fitted = draw(st.booleans())
    series = draw(st.booleans())
    return AnalysisReport(
        label="x",
        position_frac=draw(columns(n)) if series else None,
        force_frac=draw(columns(n)) if series else None,
        slope=draw(VALUES) if fitted else None,
        intercept=draw(VALUES) if fitted else None,
    )


@settings(max_examples=100, deadline=None)
@given(report=reports())
@example(report=AnalysisReport(label="none"))
@example(report=AnalysisReport(label="empty", position_frac=np.empty(0), force_frac=np.empty(0)))
@example(  # degenerate: a series but no fit, so the fitted column is nan
    report=AnalysisReport(
        label="unfitted", position_frac=np.array([0.0, -0.0, 1.0]),
        force_frac=np.array([1e300, 0.5, -1e-7]),
    )
)
def test_render_fit_csv_matches_oracle(report):
    with np.errstate(all="ignore"):
        assert render_fit_csv(report) == oracle_render_fit_csv(report)


def test_write_report_returns_the_report_without_its_series(tmp_path, hand, extension_net,
                                                            profiles):
    """The fit CSV holds the series, so the report kept after writing does
    not, and its YAML is the written one."""
    trace = run_trial(TrialConfig(hand, extension_net, profiles["S1"]), seed=0)
    report = analyze(trace, label="S1")
    kept = traceio.write_report(report, tmp_path)
    assert report.position_frac is not None and report.force_frac is not None
    assert kept.position_frac is None and kept.force_frac is None
    assert kept._replace(position_frac=report.position_frac, force_frac=report.force_frac) == report
    text = (tmp_path / "S1.report.yaml").read_text()
    assert traceio.render_report_yaml(kept) == traceio.render_report_yaml(report) == text
    assert (tmp_path / "S1_fit.csv").read_text() == render_fit_csv(report)


# --- the sidecar ------------------------------------------------------------------

TRACE_TEXT = CSV_HEADER + "\n0.0,42.0,0.0\n0.1,41.0,3.0\n0.2,40.0,6.0\n"


@pytest.mark.parametrize(
    "sidecar, reason",
    [
        ("- 1\n- 2\n", "expected a mapping, got list"),
        ("just text\n", "expected a mapping, got str"),
        ("stroke_mm: abc\n", "stroke_mm must be a finite number, got 'abc')"),
        ("sample_rate_hz: abc\n", "sample_rate_hz must be a finite number, got 'abc')"),
        ("sample_rate_hz: null\n", "sample_rate_hz must be a finite number, got None)"),
        ("noise_sigma_n: [1]\n", "noise_sigma_n must be a finite number, got [1])"),
        ("sample_rate_hz: true\n", "sample_rate_hz must be a finite number, got True)"),
        ("noise_sigma_n: !!binary MQ==\n", "line 1, column 16: '!!binary MQ==' is none of null"),
        ("stroke_mm: 1" + "0" * 400 + "\n", "stroke_mm must be a finite number, got 1000"),
        ("stroke_mm: .inf\n", "stroke_mm must be a finite number, got inf)"),
        ("breakaway:\n  time_s: abc\n", "breakaway.time_s must be a finite number, got 'abc')"),
        ("breakaway:\n  time_s: .nan\n", "breakaway.time_s must be a finite number, got nan)"),
        ("functional_time_s: {a: 1}\n",
         "functional_time_s must be a finite number, got {'a': 1})"),
        ("breakaway: [1, 2]\n", "breakaway: expected a mapping, got list"),
        ("breakaway: true\n", "breakaway: expected a mapping, got bool"),
        ("breakaway: yes\n", "line 1, column 12: 'yes' is none of null"),  # YAML 1.1's bool
        ("stroke_mm: [1\n", "line 1, column 14: unexpected end of line)"),  # not exosim's YAML
        (b"stroke_mm: \xff\n", "'utf-8' codec can't decode byte 0xff"),
        ("subject_id: null\n", "subject_id: expected a string, got NoneType"),
        ("subject_id: 7\n", "subject_id: expected a string, got int"),
        ('subject_id: "S\u00e4"\n', "subject_id: 'S\u00e4' is not a bench's subject id"),
        ("subject_id: '../S1'\n", "subject_id: '../S1' is not a bench's subject id"),
        ("subject_id: ../S1\n", "line 1, column 13: '../S1' is none of null"),  # not a plain word
        ("functional_extension: maybe\n", "functional_extension: expected a bool or null"),
        ("functional_extension: 1\n", "functional_extension: expected a bool or null, got int"),
        ("breakaway:\n  occurred: maybe\n", "breakaway.occurred: expected a bool or null"),
        ("seed: abc\n", "seed: expected null, an int or a list of ints, got 'abc'"),
        ("seed: 1.5\n", "seed: expected null, an int or a list of ints, got 1.5"),
        ("seed: true\n", "seed: expected null, an int or a list of ints, got True"),
        ("seed: [1, x]\n", "seed: expected null, an int or a list of ints, got [1, 'x']"),
        ("stroke_mm: 40\nstroke_mm: 50\n", "line 2, column 1: duplicate key 'stroke_mm')"),
    ],
    ids=["list", "scalar", "stroke-text", "rate-text", "rate-null", "noise-list",
         "rate-bool", "noise-bytes", "stroke-past-float-range", "stroke-inf",
         "release-time-text", "release-time-nan", "functional-time-map", "breakaway-list", "breakaway-bool",
         "breakaway-yes", "not-yaml", "not-utf8", "subject-null", "subject-int", "subject-non-ascii",
         "subject-path", "subject-path-plain", "functional-text",
         "functional-int", "occurred-text", "seed-text", "seed-float", "seed-bool",
         "seed-list-text", "stroke-twice"],
)
def test_unreadable_sidecar_is_a_warning(tmp_path, sidecar, reason):
    """A sidecar that is not in exosim's YAML (the warning names its line
    and column), not a mapping, or holds a field that is not what it must be
    (a number field: a config's finite number) is named in a warning, and the
    trace reads as if it had none."""
    (tmp_path / "bare.csv").write_text(TRACE_TEXT)
    bare, bare_warnings = read_trace(tmp_path / "bare.csv")
    path = tmp_path / "t.csv"
    path.write_text(TRACE_TEXT)
    side = traceio.sidecar_path(path)
    side.write_bytes(sidecar if isinstance(sidecar, bytes) else sidecar.encode())
    trace, warnings = read_trace(path)
    assert bare_warnings == []
    assert len(warnings) == 1
    assert warnings[0].startswith(f"t.meta.yaml: unreadable sidecar ({reason}")
    for name, value in vars(bare).items():
        got = getattr(trace, name)
        if isinstance(value, np.ndarray):
            assert got.tobytes() == value.tobytes()
        else:
            assert got == value, name
    assert trace.stroke_mm == 42.0


def test_well_typed_sidecar_fields_are_read():
    fields = traceio._sidecar_fields(
        {
            "subject_id": "S9",
            "seed": [1, 2, 3],
            "functional_extension": None,
            "breakaway": {"occurred": None},
        }
    )
    assert (fields["subject_id"], fields["seed"]) == ("S9", [1, 2, 3])
    assert fields["functional_extension"] is None and fields["breakaway"] is False
    fields = traceio._sidecar_fields(
        {"seed": 4, "functional_extension": True, "breakaway": {"occurred": True}}
    )
    assert (fields["seed"], fields["functional_extension"], fields["breakaway"]) == (4, True, True)


# --- atomic writes ----------------------------------------------------------------


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_file_has_the_mode_the_umask_gives(tmp_path, umask, mode):
    """The mode ``open`` would give a new file, so a results directory that
    the umask shares stays readable by others."""
    old = os.umask(umask)
    try:
        traceio.write_text_atomic(tmp_path / "a.txt", "x\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "a.txt").stat().st_mode) == mode


@pytest.mark.parametrize("target, text", [("a.txt", "bad \udc80\n"), ("dir", "x\n")])
def test_failed_write_leaves_no_temporary_file(tmp_path, target, text):
    """An unencodable text, or a rename onto a directory, fails and leaves
    the directory as it was."""
    (tmp_path / "a.txt").write_text("old\n")
    (tmp_path / "dir").mkdir()
    with pytest.raises((UnicodeEncodeError, IsADirectoryError)):
        traceio.write_text_atomic(tmp_path / target, text)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "dir"]
    assert (tmp_path / "a.txt").read_text() == "old\n"


def test_a_write_makes_its_directory_only_when_it_is_missing(tmp_path, monkeypatch):
    """The first write into a new directory makes it, a file in its place is
    refused as ``mkdir`` refuses it, and a write into a directory that exists
    does not call ``mkdir``."""
    traceio.write_text_atomic(tmp_path / "new" / "deeper" / "a.txt", "a\n")
    (tmp_path / "file").write_text("")
    with pytest.raises(FileExistsError):
        traceio.write_text_atomic(tmp_path / "file" / "a.txt", "a\n")
    monkeypatch.setattr(Path, "mkdir", lambda *args, **kwargs: pytest.fail("mkdir called"))
    traceio.write_text_atomic(tmp_path / "new" / "deeper" / "b.txt", "b\n")
    assert sorted(p.name for p in (tmp_path / "new" / "deeper").iterdir()) == ["a.txt", "b.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "new"]


def test_stale_temporary_file_does_not_stop_a_write(tmp_path):
    """A killed run can leave its temporary file behind; a later process
    with the same id writes over it, with the umask's mode, not the stale
    file's."""
    stale = tmp_path / f".a.txt.{os.getpid()}.tmp"
    stale.write_text("stale\n")
    stale.chmod(0o400)
    traceio.write_text_atomic(tmp_path / "a.txt", "new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
    assert (tmp_path / "a.txt").read_text() == "new\n"
    assert stat.S_IMODE((tmp_path / "a.txt").stat().st_mode) != 0o400
