"""One `ptbands` command in a fresh process, as the installed console script runs it.

    python3 [-X importtime] perfbench/cli_child.py [--ready FILE] [--trace-out FILE]
                                                   COMMAND --config CFG --out DIR

This does what the console-script entry point does (`from ptbands.cli
import main; sys.exit(main())`).  The import of ptbands.cli comes first;
when it returns, the child writes time.monotonic() to the --ready file
(if given), which is where its set-up time ends.  With --trace-out,
ptbands.cli.main runs under the span recorder and the layer sums are
written to FILE at exit; the import split comes from the `-X importtime`
output on stderr.
"""

import sys
import time

from ptbands.cli import main

_READY = time.monotonic()


def traced(trace_out, argv):
    import json

    import ptbands.cli
    import tracer

    rec = tracer.Tracer()
    rec.install()
    try:
        return ptbands.cli.main(argv)    # the wrapped main, not the one imported above
    finally:
        rec.uninstall()
        with open(trace_out, "w") as fh:
            json.dump(tracer.summarize(rec.spans), fh)


if __name__ == "__main__":
    argv = sys.argv[1:]
    if argv[:1] == ["--ready"]:
        with open(argv[1], "w") as fh:
            fh.write(repr(_READY))
        argv = argv[2:]
    if argv[:1] == ["--trace-out"]:
        sys.exit(traced(argv[1], argv[2:]))
    sys.exit(main(argv))
