"""Run one rusent CLI command with span tracing installed.

    python benchmarks/traced_cli.py SPANS.json RUN_ID -- <rusent arguments>

Installs the wrappers from ``tracing.py``, calls ``rusent.cli.main`` with
the given arguments, writes the spans to SPANS.json and exits with main's
return code, exactly as ``python -m rusent`` would.
"""

import sys

import tracing


def run(argv):
    spans_path, run_id, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json RUN_ID -- <rusent arguments>")
    tracer = tracing.Tracer(run_id)
    main = tracing.install(tracer)
    try:
        return main(cli_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
