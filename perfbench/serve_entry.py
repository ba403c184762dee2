"""Start ``repro serve`` for the benchmark, with the layer wrappers.

Usage::

    python3 perfbench/serve_entry.py TOTALS.json TRACE serve [repro serve args]

With ``TRACE`` = 1 the same wrappers as the client side
(:mod:`tracer`) are installed before ``repro.__main__.main`` runs, so
server-side layer times are measured by the same code. When the server
drains on SIGTERM and ``main`` returns, the script writes its totals —
per-layer times (traced only) and the process's peak resident memory —
to ``TOTALS.json``.
"""

from __future__ import annotations

import json
import os
import resource
import sys


def main() -> int:
    totals_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import repro.__main__
    import repro.serve

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = repro.__main__.main(argv)
    totals = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.totals() if tracer is not None else {},
    }
    temp = totals_path + ".tmp"
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(totals, handle)
    os.replace(temp, totals_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
