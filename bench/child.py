"""Run one deferlab CLI command in this fresh process and record its costs.

Usage: python3 bench/child.py RESULT_JSON MODE TRACE_PREFIX -- CLI_ARGS...

MODE is ``run`` (run the command) or ``setup`` (stop once the config is
parsed). TRACE_PREFIX is ``-`` for an untraced run, otherwise the path
prefix the spans are written to. The parent reads the monotonic clock just
before it starts this process; ``setup_end``, read here when
``parse_config`` returns, closes the set-up interval: interpreter start,
``import deferlab.cli`` and config parsing. Peak RSS and CPU time come from
this process's own ``getrusage``, since ``RUSAGE_CHILDREN`` in the parent
keeps the maximum over all its children.
"""

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    result_path, mode, trace_prefix, sep, *cli_args = argv
    if sep != "--" or mode not in ("run", "setup"):
        raise SystemExit("usage: child.py RESULT_JSON run|setup TRACE_PREFIX -- CLI_ARGS...")

    import deferlab
    import deferlab.cli as cli

    src = os.path.realpath("src")
    if not os.path.realpath(deferlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"deferlab imported from {deferlab.__file__}, not from {src}")

    tracer = None
    if trace_prefix != "-":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    setup_end = None
    parse = cli.parse_config

    def parse_and_mark(path):
        nonlocal setup_end
        cfg = parse(path)
        setup_end = time.monotonic()
        return cfg

    cli.parse_config = parse_and_mark
    code = 1
    try:
        if mode == "setup":
            parse_and_mark(cli_args[cli_args.index("--config") + 1])
            code = 0
        else:
            code = cli.main(cli_args)
    finally:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.dump(trace_prefix)
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record = {
            "exit_code": code,
            "setup_end": setup_end,
            "peak_rss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        }
        with open(result_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
