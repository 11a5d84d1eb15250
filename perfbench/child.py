"""Child process: one CLI command in a fresh process, timed against the
reference loop, with spans when traced.

    python3 perfbench/child.py <result.json> <traced 0|1> <addspec arguments...>

Runs the reference loop (``speed.py``), imports ``addspec.cli``, calls
``addspec.cli.main(arguments)``, runs the reference loop again, writes both
reference times to ``result.json`` and exits with main's return code.
Traced, it also times the import, installs the layer wrappers, calls main
inside a ``cli.main`` span and writes the spans beside the reference times.
"""

import json
import sys
from contextlib import nullcontext

import speed
import tracing
import workloads


def main():
    result_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    references = [speed.reference_s()]
    tracer = tracing.Tracer() if traced else None
    with tracer.span("cli.import") if traced else nullcontext():
        cli = workloads.import_addspec()
    if traced:
        tracer.install()
    with tracer.span("cli.main") if traced else nullcontext():
        code = cli.main(argv)
    if traced:
        tracer.uninstall()
    references.append(speed.reference_s())
    result = tracer.data() if traced else {}
    result["references"] = references
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
