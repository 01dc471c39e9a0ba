"""Workloads of the exosim benchmark: the inputs each one hands the CLI and
the checks its outputs must pass.

Every workload is built from the benchmark seed alone, so one seed always
gives the same CLI arguments and the same input files.  A check returns a
list of problems; an empty list means the invocation produced what the
workload expects.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

SUBJECTS = ("S1", "S2", "S3", "S4", "S5")
CSV_HEADER = "t_s,actuator_mm,force_N"
PINCH_ROWS = 1001  # a 50 mm stroke at 5 mm/s, sampled at 100 Hz

# Benchmark seed s runs reproduce over the block of 2 seeds starting at
# 2 * (s % CAMPAIGN_SEED_BLOCKS).  Every reproduce seed in 0..199 passes all
# reproduce self-checks (each was run), so any benchmark seed gives a campaign
# on which no operation fails.
CAMPAIGN_SEED_BLOCKS = 100


@dataclass(frozen=True)
class Invocation:
    """One finished CLI process and what it cost."""

    rc: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def tree_digest(root: Path) -> str:
    """sha256 over every file below ``root``: relative path, then bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


class Campaign:
    """``reproduce --seed a..b``: five extension trials per seed, analysis,
    reports, manifests and the reproduce self-checks."""

    name = "campaign"

    def __init__(self, seed: int, seeds: int = 2):
        self.seed = seed
        first = (seed % CAMPAIGN_SEED_BLOCKS) * seeds
        self.seeds = list(range(first, first + seeds))
        self.trials = len(SUBJECTS) * seeds
        self.traces = self.trials

    def prepare(self, work: Path) -> None:
        pass

    def argv(self, out: Path) -> list[str]:
        return ["reproduce", "--seed", f"{self.seeds[0]}..{self.seeds[-1]}", "--out", str(out)]

    def check(self, out: Path, inv: Invocation) -> list[str]:
        problems = [] if inv.rc == 0 else [f"exit code {inv.rc}"]
        traces = 0
        for seed in self.seeds:
            run_dir = out / f"seed_{seed}"
            manifest = run_dir / "manifest.txt"
            if not manifest.is_file():
                problems.append(f"seed {seed}: no manifest")
                continue
            lines = manifest.read_text().splitlines()
            if not lines or lines[-1] != "RESULT: PASS":
                problems.append(f"seed {seed}: manifest does not end in RESULT: PASS")
            failing = [ln for ln in lines[:-1] if not ln.startswith("PASS ")]
            if failing:
                problems.append(f"seed {seed}: manifest check not passed: {failing[0]!r}")
            traces += len(list((run_dir / "traces").glob("*.csv")))
        if traces != self.traces:
            problems.append(f"{traces} trace CSVs, expected {self.traces}")
        return problems


class SimulatePinch:
    """``simulate --tendon-config pinch``: the five-branch pinch network for
    every subject, one trace CSV and one sidecar written per trial, no
    analysis."""

    name = "simulate_pinch"

    def __init__(self, seed: int, trials_per_subject: int = 2):
        self.seed = seed
        self.per_subject = trials_per_subject
        self.trials = len(SUBJECTS) * trials_per_subject
        self.traces = 0

    def prepare(self, work: Path) -> None:
        pass

    def argv(self, out: Path) -> list[str]:
        return [
            "simulate", "--tendon-config", "pinch",
            "--subjects", f"{SUBJECTS[0]}..{SUBJECTS[-1]}",
            "--trials", str(self.per_subject), "--seed", str(self.seed), "--out", str(out),
        ]

    def check(self, out: Path, inv: Invocation) -> list[str]:
        problems = [] if inv.rc == 0 else [f"exit code {inv.rc}"]
        stems = [f"{s}_pinch_t{t:02d}" for s in SUBJECTS for t in range(self.per_subject)]
        for stem in stems:
            csv, sidecar = out / f"{stem}.csv", out / f"{stem}.meta.yaml"
            if not csv.is_file() or not sidecar.is_file():
                problems.append(f"{stem}: trace CSV or sidecar missing")
                continue
            lines = csv.read_text().splitlines()
            rows = len(lines) - lines.index(CSV_HEADER) - 1 if CSV_HEADER in lines else 0
            if rows != PINCH_ROWS:
                problems.append(f"{stem}: {rows} data rows, expected {PINCH_ROWS}")
        extra = len(list(out.glob("*"))) - 2 * len(stems) if out.is_dir() else 0
        if extra > 0:
            problems.append(f"{extra} unexpected files in the output")
        return problems


@dataclass(frozen=True)
class _CorpusTrace:
    stem: str
    kind: str  # "loaded", "breakaway" or "unloaded"
    functional: bool | None  # None when there is no sidecar to say
    bad_lines: tuple[int, ...]


class AnalyzeCorpus:
    """``analyze DIR`` over a synthetic corpus written in the trace format.

    The mix covers what the read side and the analysis branch on: traces
    with and without sidecars (metadata truncation versus the drop
    detector), breakaway drops, traces that never load (degenerate), injected
    malformed rows, and sample rates other than 100 Hz.  No simulation runs.
    """

    name = "analyze_corpus"

    def __init__(self, seed: int, traces: int = 120):
        self.seed = seed
        self.trials = 0
        self.traces = traces
        self.corpus: list[_CorpusTrace] = []
        self.input_dir: Path | None = None

    def prepare(self, work: Path) -> None:
        # The mix is fixed by the corpus size, so every seed does the same
        # amount of work; the seed decides which trace gets which property
        # and all the values.
        rng = random.Random(self.seed)
        n = self.traces
        kinds = ("loaded",) * 6 + ("breakaway",) * 3 + ("unloaded",)
        mixes = [
            [kinds[i % 10] for i in range(n)],
            [i % 2 == 0 for i in range(n)],  # has a sidecar
            [(100.0, 100.0, 100.0, 50.0, 200.0)[i % 5] for i in range(n)],
            [(0, 0, 0, 1, 2)[i % 5] for i in range(n)],  # malformed rows
        ]
        for mix in mixes:
            rng.shuffle(mix)
        self.input_dir = work / "corpus"
        self.input_dir.mkdir(parents=True)
        self.corpus = [
            self._write_trace(rng, i, *props) for i, props in enumerate(zip(*mixes))
        ]

    def _write_trace(
        self, rng: random.Random, index: int, kind: str, sidecar: bool, rate: float, bad: int
    ) -> _CorpusTrace:
        stem = f"{SUBJECTS[index % len(SUBJECTS)]}_c{index:04d}"
        stroke, speed = 50.0, 5.0
        slack = rng.uniform(2.0, 12.0)
        stiffness = rng.uniform(0.6, 1.5)
        # A release from at least 12 N onto 0 N is a drop the detector sees;
        # 0.8 of the peak the stroke reaches guarantees the release happens.
        release_n = rng.uniform(12.0, 0.8 * stiffness * (stroke - slack))
        sigma = 0.4

        rows: list[str] = []
        release_t = None
        for i in range(int(stroke / speed * rate) + 1):
            t = i / rate
            pos = max(0.0, stroke - speed * t)
            if kind == "unloaded":
                force = rng.uniform(0.0, 2.0)
            elif release_t is not None:
                force = 0.0
            else:
                force = max(0.0, stiffness * (stroke - pos - slack) + rng.gauss(0.0, sigma))
                if kind == "breakaway" and force >= release_n:
                    release_t, force = t, 0.0
            rows.append(f"{t:.6f},{pos:.6f},{force:.6f}")

        lines = ["# exosim 0.1.0", f"# seed: {self.seed}", "# config: -", CSV_HEADER, *rows]
        bad_lines = []
        for _ in range(bad):
            at = rng.randrange(4, len(lines) + 1)
            lines.insert(at, rng.choice(("oops,1.0,2.0", "1.0,2.0", "1.0,2.0,3.0,4.0")))
            bad_lines = [b + 1 if b >= at + 1 else b for b in bad_lines] + [at + 1]
        (self.input_dir / f"{stem}.csv").write_text("\n".join(lines) + "\n")

        functional = rng.random() < 0.7 if sidecar else None
        if sidecar:
            meta = [
                "breakaway:",
                f"  occurred: {'true' if release_t is not None else 'false'}",
                f"  time_s: {'null' if release_t is None else repr(release_t)}",
                f"functional_extension: {'true' if functional else 'false'}",
                "network: extension",
                f"noise_sigma_n: {sigma}",
                f"sample_rate_hz: {rate}",
                f"stroke_mm: {stroke}",
                f"subject_id: {stem.split('_')[0]}",
            ]
            (self.input_dir / f"{stem}.meta.yaml").write_text("\n".join(meta) + "\n")
        return _CorpusTrace(stem, kind, functional, tuple(sorted(bad_lines)))

    def argv(self, out: Path) -> list[str]:
        return ["analyze", str(self.input_dir), "--out", str(out)]

    def expected_totals(self) -> str:
        n = len(self.corpus)
        degenerate = sum(c.kind == "unloaded" for c in self.corpus)
        breakaway = sum(c.kind == "breakaway" for c in self.corpus)
        known = [c for c in self.corpus if c.functional is not None]
        functional = sum(bool(c.functional) for c in known)
        return (
            f"totals: {n} traces, {degenerate} degenerate, "
            f"functional extension {functional}/{len(known)}, breakaway {breakaway}/{n}"
        )

    def check(self, out: Path, inv: Invocation) -> list[str]:
        problems = [] if inv.rc == 0 else [f"exit code {inv.rc}"]
        missing = [
            c.stem
            for c in self.corpus
            if not (out / f"{c.stem}.report.yaml").is_file()
            or not (out / f"{c.stem}_fit.csv").is_file()
        ]
        if missing:
            problems.append(f"{len(missing)} inputs without a report, first {missing[0]}")
        summary = out / "summary.txt"
        totals = summary.read_text().splitlines()[-1] if summary.is_file() else "(no summary)"
        if totals != self.expected_totals():
            problems.append(f"summary {totals!r}, expected {self.expected_totals()!r}")
        warned = sorted(
            ln.split(": ", 2)[1]
            for ln in inv.stderr.splitlines()
            if ln.startswith("warning: ")
        )
        injected = sorted(f"{c.stem}.csv:{b}" for c in self.corpus for b in c.bad_lines)
        if warned != injected:
            problems.append(f"{len(warned)} row warnings, expected {len(injected)} at {injected[:3]}")
        return problems


WORKLOADS = {w.name: w for w in (Campaign, SimulatePinch, AnalyzeCorpus)}
