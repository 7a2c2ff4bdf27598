"""Run one hvtsurv command with the span tracer installed.

Usage: python3 bench/cli_child.py SPANS_JSON COMMAND [ARGS...]

The command runs in this process through ``hvtsurv.cli.main``; its spans,
the time spent inside ``main`` and the process's peak RSS are written to
SPANS_JSON, and the process exits with the command's exit code.
"""

import json
import resource
import sys

from spans import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from hvtsurv import cli

    tracer = Tracer()
    tracer.install()
    with tracer.span("cli.main"):
        code = cli.main(argv)
    tracer.uninstall()
    with open(out_path, "w") as fh:
        json.dump({"spans": tracer.spans,
                   "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
