"""Run manifests: what was run, with which inputs, producing which outputs."""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

from . import __version__


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_digest(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    command: str
    config: dict = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)    # path -> sha256
    outputs: list[str] = field(default_factory=list)
    seed: int | None = None
    version: str = __version__
    started: str = ""
    finished: str = ""

    def start(self):
        self.started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        return self

    def finish(self):
        self.finished = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        return self

    def add_input(self, path: str):
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                full = os.path.join(path, name)
                if os.path.isfile(full):
                    self.inputs[full] = file_digest(full)
        elif os.path.isfile(path):
            self.inputs[path] = file_digest(path)

    def to_dict(self) -> dict:
        return {**vars(self), "config_digest": config_digest(self.config)}

    def write(self, path: str):
        write_json(path, self.to_dict())


def read_text(path: str) -> str:
    """The UTF-8 text of ``path`` with its newlines as stored, so that the parser
    (``axioms.lines`` for the TSV formats) decides where a line ends.  This is the
    one place in elgeo that opens a file to read text."""
    with open(path, encoding="utf-8", newline="") as f:
        return f.read()


def write_atomic(path: str, chunks):
    """Write ``chunks`` to ``path`` through a temporary file in its directory and
    ``os.replace``: a failed write leaves the previous file and no temporary one.
    A chunk is ``bytes``, or a ``str`` written as UTF-8 with its newlines as given.
    This is the one place in elgeo that opens a file for writing."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path: str, doc):
    """Write one JSON document in elgeo's one layout: sorted keys, two-space
    indent, a trailing newline."""
    write_atomic(path, [json.dumps(doc, sort_keys=True, indent=2), "\n"])
