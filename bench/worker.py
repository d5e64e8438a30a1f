"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py '<json spec>'

The spec names the workload, seed, pass index, whether to trace, the
monotonic time at which the parent spawned this process, the ``src``
directory the program must be imported from, and a scratch directory.  With
``"mode": "setup"`` the worker stops once set up.  The last line of standard
output is one JSON object.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import covert_bosonic.cli  # noqa: F401  (timed: the CLI's import cost)
    import_s = time.perf_counter() - t0

    import covert_bosonic
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(covert_bosonic.__file__).startswith(src + os.sep):
        sys.stderr.write(f"covert_bosonic imported from {covert_bosonic.__file__}, "
                         f"not from {src}\n")
        return 2

    import inputs
    import workloads

    x = inputs.generate(spec["workload"], spec["seed"], spec["pass"])
    out = {"setup_s": time.monotonic() - spec["spawn_monotonic"], "import_s": import_s,
           "env": workloads.environment()}
    if spec["mode"] == "pass":
        out["inputs"] = x
        out.update(workloads.run_pass(spec["workload"], x, spec["trace"],
                                      spec["scratch_dir"]))
        if spec.get("cold_args"):
            out["cold_reference"] = workloads.in_process_cli(spec["cold_args"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
