"""Run one traced ``mlpp`` command in a fresh interpreter.

Usage: python3 perfbench/launch.py SPANS_JSON RUN_ID -- <mlpp arguments>

Times ``import mlpp.cli``, wraps the layer functions (see tracer.py),
runs ``mlpp.cli.main`` with the given arguments and writes the spans,
counts, missing layers and import time to SPANS_JSON when the command
ends, whatever its exit status.
"""
import json
import sys
import time

from tracer import Tracer


def main() -> int:
    out_path, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS_JSON RUN_ID -- <mlpp arguments>")
    start = time.perf_counter()
    import mlpp.cli
    import_s = time.perf_counter() - start
    tracer = Tracer(run_id)
    tracer.install()
    try:
        return mlpp.cli.main(argv)
    finally:
        tracer.uninstall()
        doc = tracer.document()
        doc["import_s"] = import_s
        with open(out_path, "w") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
