"""Runtime limits and defaults, optionally loaded from a flat key=value file."""

from __future__ import annotations

import os
import re
from typing import NamedTuple

from .machine import parse_integer

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
        # bytes.splitlines breaks at \n, \r and \r\n, as text mode does
        for number, raw in enumerate(data.splitlines(), 1):
            where = f"{path}, line {number}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                key, sep, _ = raw[:e.start].decode("utf-8").partition("=")
                part = f"the value of {key.strip()}" if sep else "the line"
                raise ValueError(f"{where}: {part} is not UTF-8 text "
                                 f"(byte {raw[e.start]:#04x})") from None
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{where}: bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            value = re.split(r"(?:^|\s)#", value, maxsplit=1)[0].rstrip()
            if key not in Config._fields:
                raise ValueError(f"{where}: unknown config key: {key!r}")
            if isinstance(Config._field_defaults[key], int):
                try:
                    value = parse_integer(value)
                except ValueError:
                    raise ValueError(
                        f"{where}: {key} must be an integer, not {value!r}") from None
            try:
                Config(**{key: value}).validate()  # the other fields are defaults
            except ValueError as e:
                raise ValueError(f"{where}: {e}") from None
            values[key] = value
    # an empty cache path, in the file or the environment, means no cache
    values["cache_path"] = env.get("BGSLAB_CACHE") or values.get("cache_path") or None
    return Config(**values).validate()

