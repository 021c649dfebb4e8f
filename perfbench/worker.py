"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json job>'

The job names the workload, seed, pass directory, source directory and
whether to trace.  The pass imports virusgame, writes the workload's inputs
(that is its set-up), calls ``virusgame.cli.main`` once per input and
writes ``result.json`` to the pass directory: set-up and wall seconds, peak
resident memory, each call's exit code and, when traced, the spans.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main(job):
    sys.path.insert(0, job["src"])
    from virusgame import cli

    import workloads
    from tracer import Tracer

    calls = workloads.build_inputs(job["workload"], job["seed"],
                                   os.path.join(job["pass_dir"], "in"),
                                   os.path.join(job["pass_dir"], "out"))
    setup_s = time.perf_counter() - _T0

    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    exits = []
    start = time.perf_counter()
    for argv, label in calls:
        span = tracer.open("cli.main", label=label) if tracer else None
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash fails this call's points; keep timing
            traceback.print_exc()
            code = -1
        finally:
            if span is not None:
                tracer.close(span)
        exits.append(code)
    wall_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "exits": exits,
        "virusgame_file": sys.modules["virusgame"].__file__,
    }
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
    with open(os.path.join(job["pass_dir"], "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
