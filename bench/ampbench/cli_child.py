"""Traced child of the cli-oneshot workload: one CLI call with spans.

    python -m ampbench.cli_child <amplab arguments...>

Installs the LAPACK counters before importing ``amplitude_lab``, parses
each JSON input file once inside a ``serialize.load`` span, runs
``cli.main(argv)`` in-process with stdout captured inside a ``cli.main``
span, and prints one JSON object: the exit code, the captured stdout and
the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from ampbench.trace import LapackPatch, Recorder


def main(argv: list[str]) -> int:
    recorder = Recorder()
    patch = LapackPatch(recorder)
    patch.apply()
    import amplitude_lab.cli as cli
    import amplitude_lab.serialize as ser
    from amplitude_lab.errors import ParseError

    patch.apply()
    for path in argv[1:]:
        if path.endswith(".json"):
            with recorder.span("serialize.load"), contextlib.suppress(ParseError):
                ser.load_file(path)
    captured = io.StringIO()
    with recorder.span("cli.main"), contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    print(json.dumps({"code": code, "stdout": captured.getvalue(), "spans": recorder.export()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
