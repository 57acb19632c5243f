"""Run records: every CLI invocation can persist its config and payload for replay."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

SCHEMA_VERSION = 16


@dataclass
class RunRecord:
    schema: int
    command: list          # argv as invoked
    subcommand: str
    config: dict           # resolved flags, seeds included
    input_hash: str        # content hash of the resolved config
    started: str
    finished: str
    payload: object        # the JSON payload that went to stdout


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def utc_stamp() -> str:
    """UTC time to the nanosecond, seconds and fraction from one clock read."""
    seconds, nanos = divmod(time.time_ns(), 1_000_000_000)
    return time.strftime("%Y%m%dT%H%M%S", time.gmtime(seconds)) + f".{nanos:09d}"


def write_record(runs_dir, record: RunRecord) -> Path:
    root = Path(runs_dir)
    out = root / f"{record.started}-{record.input_hash[:8]}"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "record.json", "w") as fh:
        json.dump(asdict(record), fh, indent=2)
        fh.write("\n")
    return out


def load_record(run_dir) -> RunRecord:
    with open(Path(run_dir) / "record.json") as fh:
        raw = json.load(fh)
    return RunRecord(**raw)
