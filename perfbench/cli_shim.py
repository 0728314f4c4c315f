"""Runs one plethtomo CLI command as `python -m plethtomo` does, and reports
the process's own peak resident set.

    python3 cli_shim.py [--trace OUT_PREFIX] ARG...

stdout and the exit code are the CLI's own (an uncaught exception prints
its traceback and exits 1, as `python -m plethtomo` does).  The last line
of stderr is `peak_rss_kb N`: the high-water mark of this process's own
memory (VmHWM), which unlike ru_maxrss leaves out the resident set of the
parent it was spawned from.  With --trace the layer tracer is installed;
the trace summary, with the time `import plethtomo.cli` took, goes to
OUT_PREFIX.json and the spans to OUT_PREFIX.spans.tsv.gz.
"""

import json
import sys
import time
import traceback

t0 = time.perf_counter()
import plethtomo.cli  # noqa: E402

import_s = time.perf_counter() - t0

from metrics import PEAK_RSS_PREFIX, own_peak_rss_kb  # noqa: E402


def run(argv: list[str]) -> int:
    try:
        return plethtomo.cli.main(argv)
    except Exception:
        traceback.print_exc()
        return 1


def traced(prefix: str, argv: list[str]) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return run(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        summary = tracer.summary()
        summary["import_s"] = import_s
        summary["subcommand"] = argv[0] if argv else ""
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        tracer.write(prefix + ".spans.tsv.gz")


def main() -> int:
    argv = sys.argv[1:]
    code = traced(argv[1], argv[2:]) if argv[:1] == ["--trace"] else run(argv)
    sys.stdout.flush()
    print(f"{PEAK_RSS_PREFIX}{own_peak_rss_kb()}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
