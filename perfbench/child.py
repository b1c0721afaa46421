"""One timed CLI run of the benchmark, in its own interpreter.

    python3 perfbench/child.py RESULT_JSON SPANS_JSONL|- RUN_ID CLI_ARG...

Set-up ends when ``bathdyn.cli`` has been imported; the parent takes the
interval from process spawn to that instant (both on CLOCK_MONOTONIC, which
is shared by all processes). The solve is the ``cli.main`` call. With a spans
path other than ``-`` the layer functions are wrapped by ``tracer`` first and
the spans are written when the run ends. The result file holds the exit
code, the timings and the peak resident memory.
"""

import sys
import time

import bathdyn.cli

T_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    import json
    import resource

    result_path, spans_path, run_id, *cli_argv = sys.argv[1:]
    tracer = None
    if spans_path != "-":
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer(run_id)
        tracer.install()
    t0 = time.perf_counter()
    if tracer is None:
        rc = bathdyn.cli.main(cli_argv)
    else:
        rc = tracer.call(ROOT_SPAN, bathdyn.cli.main, cli_argv)
    solve_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.write(spans_path)
    result = {
        "rc": rc,
        "t_imported": T_IMPORTED,
        "solve_s": solve_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bathdyn_file": bathdyn.cli.__file__,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
