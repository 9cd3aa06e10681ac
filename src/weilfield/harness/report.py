"""Experiment reports: CSV tables, pass/fail verdicts, atomic persistence.

Numbers are written in scientific notation with 17 significant digits so
64-bit floats round-trip exactly; CSV bodies are deterministic for a fixed
config and seed.  Files land via temp-file + rename, so an aborted run
never leaves a partial output, and each takes the mode open() would give it
under the umask in force when it is written.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, groupby
from typing import Iterable, Sequence


def fmt(value) -> str:
    """17-significant-digit scientific notation for floats; str otherwise."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


@cache
def _row_template(kinds: tuple[type, ...]) -> str | None:
    """One %-format that renders a row of these cell types as fmt and csv.writer do.

    Floats (numpy's float64 among them) take fmt's 17 digits, ints and bools
    their str.  None when some cell is anything else: its text may need
    csv quoting, so the row goes through csv.writer.
    """
    specs = []
    for kind in kinds:
        if issubclass(kind, float):
            specs.append("%.16e")
        elif issubclass(kind, int):
            specs.append("%s")
        else:
            return None
    return ",".join(specs) + "\n"


@dataclass(frozen=True)
class Verdict:
    name: str
    value: float
    tolerance: float
    passed: bool
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} {self.name}: value={fmt(self.value)} tolerance={fmt(self.tolerance)}"
        return out + (f" ({self.note})" if self.note else "")


def check(name: str, value: float, tolerance: float, *, note: str = "") -> Verdict:
    """Verdict value <= tolerance."""
    return Verdict(name, float(value), float(tolerance), bool(value <= tolerance), note)


def check_window(name: str, value: float, center: float, band: float) -> Verdict:
    """Verdict |value - center| <= band, reported against the band."""
    return Verdict(name, float(value), float(band),
                   bool(abs(value - center) <= band),
                   f"target {center:g} +/- {band:g}")


@dataclass
class Report:
    experiment: str
    tables: dict[str, tuple[list[str], list[list]]] = field(default_factory=dict)
    verdicts: list[Verdict] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    files: dict[str, bytes] = field(default_factory=dict)  # written as they are, by name

    def add_table(self, name: str, header: Sequence[str],
                  rows: Iterable[Sequence]) -> None:
        self.tables[name] = (list(header), [list(r) for r in rows])

    def add_verdict(self, verdict: Verdict) -> None:
        self.verdicts.append(verdict)

    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def csv_bytes(self, name: str) -> bytes:
        """The table as csv.writer writes fmt of each cell, one % per run of same-typed rows."""
        header, rows = self.tables[name]
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for kinds, run in groupby(rows, lambda row: tuple(map(type, row))):
            template = _row_template(kinds)
            if template is None:
                writer.writerows([fmt(v) for v in row] for row in run)
            else:
                run = list(run)
                buf.write(template * len(run) % tuple(chain.from_iterable(run)))
        return buf.getvalue().encode("utf-8")

    def summary_lines(self) -> list[str]:
        return [v.line() for v in self.verdicts]


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a sibling temp file and rename, never leaving partial output.

    The temp file is created 0o666 under the umask in force now, the mode a
    plain open() would give the file; its directory must exist.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(report: Report, outdir: str) -> list[str]:
    """Persist all tables, the files and the verdict/provenance document; returns paths."""
    os.makedirs(os.path.abspath(outdir), exist_ok=True)
    paths = []
    for name in sorted(report.tables):
        path = os.path.join(outdir, f"{name}.csv")
        atomic_write_bytes(path, report.csv_bytes(name))
        paths.append(path)
    for name, data in sorted(report.files.items()):
        path = os.path.join(outdir, name)
        atomic_write_bytes(path, data)
        paths.append(path)
    doc = {
        "experiment": report.experiment,
        "verdicts": [
            {
                "name": v.name,
                "value": v.value,
                "tolerance": v.tolerance,
                "passed": v.passed,
                "note": v.note,
            }
            for v in report.verdicts
        ],
        "provenance": report.provenance,
    }
    path = os.path.join(outdir, "report.json")
    atomic_write_bytes(path, json.dumps(doc, indent=2, sort_keys=True).encode("utf-8"))
    paths.append(path)
    return paths
