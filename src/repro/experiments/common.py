"""Shared plumbing for the experiment harnesses."""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.workloads.blocks import BlockSource
from repro.workloads.profiles import PROFILES, BenchmarkProfile

__all__ = [
    "Scale",
    "ExperimentTable",
    "geomean",
    "sample_blocks",
    "results_dir",
]


class Scale(enum.Enum):
    """How much work an experiment does.

    ``SMOKE`` keeps CI fast, ``SMALL`` is the default for the benchmark
    harness, ``FULL`` approaches the paper's sample sizes (minutes of
    runtime in pure Python).
    """

    SMOKE = "smoke"
    SMALL = "small"
    FULL = "full"

    @classmethod
    def from_env(cls, default: "Scale" = None) -> "Scale":
        """Scale selection via the REPRO_SCALE environment variable.

        An unset (or empty) variable yields ``default`` (SMALL); an
        unrecognised value raises so a typo'd ``REPRO_SCALE=fulll`` fails
        loudly instead of silently running at the wrong scale.
        """
        name = os.environ.get("REPRO_SCALE", "").strip().lower()
        if not name:
            return default or cls.SMALL
        for scale in cls:
            if scale.value == name:
                return scale
        choices = ", ".join(scale.value for scale in cls)
        raise ValueError(
            f"REPRO_SCALE={name!r} is not a valid scale; choose one of: {choices}"
        )

    def pick(self, smoke: int, small: int, full: int) -> int:
        """Choose a work amount for this scale."""
        return {Scale.SMOKE: smoke, Scale.SMALL: small, Scale.FULL: full}[self]


@dataclass
class ExperimentTable:
    """A printable reproduction of one figure/table.

    ``rows`` maps a row label (usually a benchmark) to one value per
    column.  ``notes`` carries headline numbers ("average", paper values)
    that EXPERIMENTS.md records.
    """

    title: str
    columns: tuple[str, ...]
    rows: list[tuple[str, tuple[float, ...]]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    percent: bool = True
    #: Metrics snapshot captured while the experiment ran (empty when
    #: observability is off); embedded in the saved results JSON.
    metrics: dict = field(default_factory=dict)

    def add(self, label: str, values: Iterable[float]) -> None:
        values = tuple(values)
        if len(values) != len(self.columns):
            raise ValueError(
                f"row {label!r} has {len(values)} values for "
                f"{len(self.columns)} columns"
            )
        self.rows.append((label, values))

    def column(self, name: str) -> list[float]:
        index = self.columns.index(name)
        return [values[index] for _, values in self.rows]

    def row(self, label: str) -> tuple[float, ...]:
        for row_label, values in self.rows:
            if row_label == label:
                return values
        raise KeyError(label)

    def _fmt(self, value: float) -> str:
        if self.percent:
            return f"{100 * value:6.1f}%"
        return f"{value:.5g}"

    def to_text(self) -> str:
        label_width = max(
            [len("benchmark")] + [len(label) for label, _ in self.rows]
        )
        col_width = max(12, max(len(c) for c in self.columns) + 1)
        lines = [self.title, "=" * len(self.title)]
        header = "benchmark".ljust(label_width) + "".join(
            c.rjust(col_width) for c in self.columns
        )
        lines.append(header)
        lines.append("-" * len(header))
        for label, values in self.rows:
            lines.append(
                label.ljust(label_width)
                + "".join(self._fmt(v).rjust(col_width) for v in values)
            )
        for note in self.notes:
            lines.append(f"  {note}")
        return "\n".join(lines)

    def to_ascii_chart(self, column: Optional[str] = None, width: int = 40) -> str:
        """Render one column as a horizontal bar chart (figures are bar
        charts in the paper; this keeps the reproduction eyeball-able in a
        terminal)."""
        if column is None and self.columns:
            column = self.columns[0]
        title = f"{self.title} — {column}" if column else self.title
        if not self.rows:
            # An empty table (nothing ran / everything filtered) renders
            # as its title alone rather than raising on max() of nothing.
            return title
        index = self.columns.index(column)
        values = [values[index] for _, values in self.rows]
        top = max(max(values, default=0.0), 1e-12)
        label_width = max(len(label) for label, _ in self.rows)
        lines = [title]
        for label, row in self.rows:
            value = row[index]
            bar = "#" * max(0, round(width * value / top))
            lines.append(
                f"{label.ljust(label_width)} |{bar.ljust(width)}| "
                f"{self._fmt(value).strip()}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serialisable form (raw numbers, for downstream tooling)."""
        out = {
            "title": self.title,
            "columns": list(self.columns),
            "rows": {label: list(values) for label, values in self.rows},
            "notes": list(self.notes),
            "percent": self.percent,
        }
        if self.metrics:
            out["metrics"] = self.metrics
        return out

    def save(self, name: str) -> Path:
        """Write the rendered table (and raw JSON) under results/."""
        import json

        path = results_dir() / f"{name}.txt"
        path.write_text(self.to_text() + "\n")
        (results_dir() / f"{name}.json").write_text(
            json.dumps(self.to_dict(), indent=2) + "\n"
        )
        return path


def results_dir() -> Path:
    """Directory collecting rendered experiment tables."""
    path = Path(os.environ.get("REPRO_RESULTS_DIR", "results"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (Fig. 11 reports a geomean across benchmarks).

    Zero/negative entries are rejected rather than silently dropped: a
    normalized IPC of 0 means a run failed, and dropping it would
    *inflate* the reported geomean.  An empty sequence yields 0.0.
    """
    values = list(values)
    if not values:
        return 0.0
    bad = [v for v in values if v <= 0]
    if bad:
        raise ValueError(
            f"geomean over non-positive values {bad}: a zero/negative "
            "normalized IPC means a run failed — refusing to drop it"
        )
    return math.exp(sum(math.log(v) for v in values) / len(values))


def sample_blocks(
    profile: BenchmarkProfile | str, count: int, seed: int = 1
) -> list[bytes]:
    """Blocks referenced by a benchmark's miss stream (content included).

    Mirrors the paper's methodology: compressibility is measured over the
    blocks *accessed* (DRAM traffic), not over a uniform footprint scan.
    """
    from repro.workloads.tracegen import TraceGenerator

    if isinstance(profile, str):
        profile = PROFILES[profile]
    source = BlockSource(profile, seed=seed)
    trace = TraceGenerator(profile, seed=seed)
    return [source.block(addr) for addr in trace.sample_blocks(count)]
