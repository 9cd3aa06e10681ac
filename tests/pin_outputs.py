"""Pinned outputs of the shipped configs: what a run of each one writes.

    PYTHONPATH=src python3 tests/pin_outputs.py

runs every config in configs/ through weilfield.harness.experiments.run
and rewrites tests/data/<config>.json with the run's verdict values, every
column of every CSV table it writes, the sha256 of each output file, and
the numpy version and machine the run was made on.  test_pinned_outputs.py
runs the configs again and compares against these files.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")
DATA = os.path.join(HERE, "data")


def machine() -> str:
    """The architecture and the SIMD extensions numpy found, which pick its float kernels."""
    try:
        found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except (KeyError, TypeError):  # a numpy without the dict form
        found = []
    return " ".join([platform.machine(), *found])


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def shipped() -> list[str]:
    """The shipped configs' names, without the .json."""
    return sorted(os.path.basename(p)[:-5] for p in glob.glob(os.path.join(CONFIGS, "*.json")))


def record(name: str) -> dict:
    """Run configs/<name>.json into a scratch directory and read back what it wrote."""
    from weilfield.harness import experiments
    from weilfield.harness.config import ExperimentConfig

    config = ExperimentConfig.from_file(os.path.join(CONFIGS, f"{name}.json"))
    with tempfile.TemporaryDirectory() as out:
        report = experiments.run(config, out)
        files = {}
        for file in sorted(os.listdir(out)):
            with open(os.path.join(out, file), "rb") as fh:
                files[file] = fh.read()
    tables = {}
    for file, data in files.items():
        if file.endswith(".csv"):
            header, *rows = csv.reader(io.StringIO(data.decode("utf-8")))
            tables[file] = {col: [_cell(row[i]) for row in rows] for i, col in enumerate(header)}
    return {
        "config": f"configs/{name}.json",
        "numpy": np.__version__,
        "machine": machine(),
        "verdicts": {v.name: v.value for v in report.verdicts},
        "tables": tables,
        "sha256": {file: hashlib.sha256(data).hexdigest() for file, data in files.items()},
    }


def main() -> int:
    os.makedirs(DATA, exist_ok=True)
    for name in shipped():
        with open(os.path.join(DATA, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(record(name), fh, indent=1)
            fh.write("\n")
        print(f"tests/data/{name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
