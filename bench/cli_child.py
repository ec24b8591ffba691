"""Run one cyclotome command line in this interpreter, as a shell user would.

    cli_child.py [--trace-out PATH] -- ARGV...

Without ``--trace-out`` this is the ``cyclotome`` console script with the
library taken from the checkout's ``src/``.  With it, the same span recorder
as the benchmark's traced runs wraps the library, and the spans (including
the import of ``cyclotome.cli``) are written to PATH when the command ends.
"""

import os
import sys


def main() -> int:
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    if trace_out is None:
        from cyclotome.cli import main as cli_main

        return cli_main(argv)

    from time import perf_counter

    import tracer

    t0 = perf_counter()
    import cyclotome.cli

    recorder = tracer.Recorder()
    recorder.add_span(tracer.IMPORT_SPAN, t0, perf_counter())
    try:
        with tracer.installed(recorder):
            return cyclotome.cli.main(argv)
    finally:
        sys.stdout.flush()
        recorder.write(trace_out)


if __name__ == "__main__":
    sys.exit(main())
