"""Run one `bgslab` command with spans installed, then dump the spans.

    python3 perfbench/cli_child.py DUMP_FILE BGSLAB_ARGS...

Behaves like `python -m bgslab BGSLAB_ARGS...` (same output, same exit
code) and writes the tracer's dump to DUMP_FILE as JSON for the parent to
merge.  `bgslab` must be importable, e.g. through PYTHONPATH.
"""

import json
import sys

import bgslab.cli
from spans import Tracer


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return bgslab.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(dump_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
