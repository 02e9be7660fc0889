"""One rep of one workload in a fresh process; prints a JSON result line.

``run.py`` starts this file once per rep so that each rep pays what a
user pays on every CLI invocation: interpreter start, imports,
profiling, trace synthesis and predictor training.  Modes:

- ``plain``: no instrumentation (end-to-end metrics);
- ``spans``: the benchmark's layer wrappers are attached;
- ``telemetry``: co-runs record a ``TraceRecorder`` stream and check it
  against the live counters.
"""

from __future__ import annotations

import argparse
import json
import time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "telemetry"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    from workloads import OUT_DIR, RUNNERS, WORKLOADS

    cfg = WORKLOADS[args.workload]
    marks = {"spawned": args.spawned_at}
    t0 = time.monotonic()
    import numpy

    if cfg["kind"] == "serve":
        import repro.serving  # noqa: F401
    else:
        import repro.experiments.runners  # noqa: F401
        import repro.simulator  # noqa: F401
    marks["imported"] = time.monotonic()

    rec = None
    if args.mode == "spans":
        import instrument
        from spans import SpanRecorder

        rec = SpanRecorder()
        instrument.install(rec)
        if cfg["kind"] == "serve":
            instrument.install_serving(rec)

    result = RUNNERS[cfg["kind"]](
        cfg, args.seed, marks, telemetry=args.mode == "telemetry"
    )
    result["import_s"] = marks["imported"] - t0
    result["marks"] = marks
    result["numpy"] = numpy.__version__
    if rec is not None:
        result["spans"] = rec.summary()
        result["span_count"] = len(rec)
        result["untraced"] = rec.missing
        rec.write(OUT_DIR / f"spans-{args.workload}.npz")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
