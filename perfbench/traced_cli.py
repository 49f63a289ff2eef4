"""Run the junctionflow command line with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py TRACE_FILE COMMAND [ARGS...]

Spans of the process that runs the command are written to TRACE_FILE
(gzip JSON) when it returns. Pool workers inherit the wrappers, but their
spans stay in the workers and are not written.
"""

import sys

import junctionflow.cli

from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer().install()
    try:
        code = junctionflow.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.write(sys.argv[1])
    sys.exit(code)
