"""One workload process: start, set up, run one hjbfd command, report.

run.py starts this script in a fresh interpreter for every sample, so each
sample pays what a user's `hjbfd ...` pays: interpreter start, imports and
config parsing.  Usage (from run.py):

    python3 child.py --launched <parent CLOCK_MONOTONIC> --result out.json
                     [--spans spans.jsonl] [--setup-only] -- <hjbfd argv>

setup_s runs from the parent's launch time (CLOCK_MONOTONIC is shared by
all processes) until hjbfd is imported and the config is parsed into
problem objects.  wall_s times hjbfd.cli.main(argv), CSV output included.
Without --spans no wrapper is installed; the span module is imported only
after the timed call, to count wrappers (zero expected).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

# parse function of hjbfd.config for each subcommand the workloads use
PARSERS = {"split": "parse_split", "switching": "parse_switching",
           "solve": "parse_problem", "rates": "parse_problem"}


def peak_rss_mb() -> float:
    """VmHWM of this process image.

    os.wait4's ru_maxrss is not used: Linux carries the parent's high-water
    mark into a child across fork and exec, so a large benchmark parent would
    set the child's figure.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import numpy
    import hjbfd.cli
    import hjbfd.config

    parse = getattr(hjbfd.config, PARSERS[argv[0]])
    parse(hjbfd.config.load_json(argv[1]))
    setup_s = time.monotonic() - args.launched
    result = {"setup_s": setup_s, "numpy": numpy.__version__}

    if not args.setup_only:
        tracer = None
        if args.spans:
            import spans
            tracer = spans.Tracer()
            result["patched"] = tracer.install()
        t0 = time.perf_counter()
        try:
            rc = hjbfd.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        result["wall_s"] = time.perf_counter() - t0
        result["rc"] = rc
        result["peak_rss_mb"] = peak_rss_mb()
        import spans
        result["wrapped"] = spans.count_wrapped()
        if tracer is not None:
            tracer.write(args.spans)
    sys.stdout.flush()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return result.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
