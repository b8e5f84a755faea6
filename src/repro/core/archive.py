"""The generator archive: a system-independent serialisation (§4.1/§4.2).

The paper's generator *"computes the data set using a temporary in-memory
data structure and the result is serialized in a generator archive"*; the
archive is then *"parsed and the database systems are populated"*.  We use
JSON-lines: one header, then one line per initial row, then one line per
transaction.  Tuples inside operations survive a round trip (JSON turns
them into lists; :func:`read_archive` restores them).
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator, List

from .dbgen import InitialData
from .generator import GeneratedWorkload

FORMAT_VERSION = 1


def write_archive(workload: GeneratedWorkload, path) -> int:
    """Serialise *workload*'s replayable part; returns the line count."""
    path = Path(path)
    lines = 0
    with path.open("w", encoding="utf-8") as fh:
        header = {
            "kind": "header",
            "format": FORMAT_VERSION,
            "h": workload.config.h,
            "m": workload.config.m,
            "seed": workload.config.seed,
            "scenario_count": len(workload.transactions),
        }
        fh.write(json.dumps(header) + "\n")
        lines += 1
        for table, rows in workload.initial.tables.items():
            for values in rows:
                fh.write(json.dumps({"kind": "row", "table": table, "values": values}) + "\n")
                lines += 1
        for index, ops in enumerate(workload.transactions):
            record = {"kind": "txn", "seq": index, "ops": [_encode_op(op) for op in ops]}
            fh.write(json.dumps(record) + "\n")
            lines += 1
    return lines


def _encode_op(op: tuple) -> list:
    return [list(part) if isinstance(part, tuple) else part for part in op]


def _decode_op(parts: list) -> tuple:
    kind = parts[0]
    if kind in ("update", "delete", "seq_update", "seq_delete"):
        # element 2 is the key tuple
        parts = list(parts)
        parts[2] = tuple(parts[2])
    return tuple(parts)


class ArchiveReader:
    """Streaming reader over a generator archive."""

    def __init__(self, path):
        self.path = Path(path)
        self.header = None
        with self.path.open("r", encoding="utf-8") as fh:
            first = fh.readline()
        record = json.loads(first)
        if record.get("kind") != "header":
            raise ValueError(f"{path}: not a generator archive")
        if record.get("format") != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported archive format {record.get('format')}")
        self.header = record

    def initial_rows(self) -> Iterator[tuple]:
        """(table, values) of the version-0 rows in load order."""
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if record["kind"] == "row":
                    yield record["table"], record["values"]

    def transactions(self) -> Iterator[List[tuple]]:
        """Operation lists in system-time order (a stepwise linear scan of
        the archive sorted by system time, as §4.1 prescribes)."""
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if record["kind"] == "txn":
                    yield [_decode_op(op) for op in record["ops"]]

    def initial_data(self) -> InitialData:
        data = InitialData()
        for table, values in self.initial_rows():
            data[table].append(values)
        return data


def replay_archive(reader: ArchiveReader, db, batch_size: int = 1) -> int:
    """Populate *db* directly from an archive file (no generator needed),
    through the loader's replay.

    Returns the number of applied operations.  The schema must already
    exist (see :func:`repro.core.schema.create_benchmark_tables`).
    """
    from .loader import Loader  # late import: avoid a cycle

    archive = SimpleNamespace(
        initial=reader.initial_data(), transactions=list(reader.transactions())
    )
    loader = Loader(SimpleNamespace(db=db), archive)
    initial = loader.load_initial()
    _transactions, operations = loader.replay(batch_size)
    return initial + operations
