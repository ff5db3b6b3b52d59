"""Paths and helpers shared by the benchmark's modules."""

from __future__ import annotations

import hashlib
import json
import pathlib

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: trace files and the service workload's temporary stores
OUT_DIR = ROOT / ".perfbench_out"


def load_expected() -> dict:
    """Recorded outputs the runs are checked against (``expected.json``)."""
    with open(HERE / "expected.json") as handle:
        return json.load(handle)


def per_layer_spec() -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)["per_layer"]


def record_digest(record: dict) -> str:
    """Canonical digest of a ``SystemResult.to_record()``."""
    blob = json.dumps(record, sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


class Outcome:
    """Counts operations and the reasons any of them failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, label: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failures.append(f"{label}: " + "; ".join(errors))
        return not errors

    @property
    def failed(self) -> int:
        return len(self.failures)
