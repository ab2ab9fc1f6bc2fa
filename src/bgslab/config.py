"""Runtime limits and defaults, optionally loaded from a flat key=value file."""

from __future__ import annotations

import io
import os
import re
from typing import NamedTuple

OUTPUT_FORMATS = ("json", "csv", "table")


class Config(NamedTuple):
    budget_default: int = 10_000
    k_max: int = 32
    var_count_max: int = 20
    cache_path: str | None = None
    output_format: str = "json"

    def validate(self) -> "Config":
        if self.budget_default < 1:
            raise ValueError("budget_default must be >= 1")
        if not 0 <= self.k_max <= 64:
            raise ValueError("k_max must be between 0 and 64")
        if not 0 <= self.var_count_max <= 20:
            raise ValueError("var_count_max must be between 0 and 20")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"output_format must be one of {OUTPUT_FORMATS}")
        return self


def load_config(path: str | None = None, env: dict | None = None) -> Config:
    """Read `key=value` lines; a nonempty BGSLAB_CACHE overrides the cache path.

    A `#` at the start of a line or value, or after whitespace, starts a
    comment; a `#` inside a token (`/tmp/a#b`) is part of the value.  An
    error in a line names the file, the line number and, when it can be
    read, the key."""
    env = os.environ if env is None else env
    values = {}
    if path is not None:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValueError(_not_utf8(path, data[:e.start].decode("utf-8"), data[e.start])) from None
        # newline=None splits lines as a file opened in text mode does
        for number, raw in enumerate(io.StringIO(text, newline=None), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}, line {number}"
            if "=" not in line:
                raise ValueError(f"{where}: bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            value = re.split(r"(?:^|\s)#", value, maxsplit=1)[0].rstrip()
            if key not in Config._fields:
                raise ValueError(f"{where}: unknown config key: {key!r}")
            if isinstance(Config._field_defaults[key], int):
                try:
                    values[key] = int(value)
                except ValueError:
                    raise ValueError(
                        f"{where}: {key} must be an integer, not {value!r}") from None
            else:
                values[key] = value
    # an empty cache path, in the file or the environment, means no cache
    values["cache_path"] = env.get("BGSLAB_CACHE") or values.get("cache_path") or None
    return Config(**values).validate()


def _not_utf8(path: str, before: str, byte: int) -> str:
    """The error text for a file whose first undecodable byte follows the
    text `before`."""
    lines = re.split(r"\r\n?|\n", before)
    where = f"{path}, line {len(lines)}"
    key, sep, _ = lines[-1].partition("=")
    part = f"the value of {key.strip()}" if sep else "the line"
    return f"{where}: {part} is not UTF-8 text (byte {byte:#04x})"
