"""Run one ``hlcast`` CLI stage with the layer tracer installed.

Usage: ``python perfbench/cli_runner.py <spans.json> <op id> <stage> [args...]``

Traced counterpart of ``python -m hlcast.cli <stage> [args...]``: it times
the import of ``hlcast.cli`` and the stage itself as ``cli.*`` spans, wraps
the layer functions beneath them, writes the spans to ``<spans.json>`` and
exits with the stage's exit code. The dump also holds the process's first
and last ``perf_counter`` readings; that clock is system-wide, so the parent
can time interpreter start and exit around them.
"""

import time

BEGIN = time.perf_counter()

import sys  # noqa: E402

import spans  # noqa: E402

if __name__ == "__main__":
    out, op, stage, *rest = sys.argv[1:]
    tracer = spans.Tracer()
    tracer.op = int(op)
    with tracer.span("cli.import"):
        import hlcast.cli
    tracer.install()
    code = 0
    with tracer.span(f"cli.{stage}"):
        try:
            hlcast.cli.main(args=[stage, *rest], prog_name="hlcast")
        except SystemExit as exc:
            code = exc.code
    tracer.dump(out, process=[BEGIN, time.perf_counter()])
    sys.exit(code)
