"""Time ggred's set-up in a fresh process and print it as one JSON line.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``, with the
repository's ``src`` on ``PYTHONPATH``.  Set-up is what a ``ggred run``
user pays before the first check: importing the package, then
``cli.load_config`` and ``cli.setup_scenario`` (which calls
``scenarios.build``) for each of the workload's configs.  A reference
sample (``reference.py``) taken right after lets the caller scale it to
the reference speed.
"""

import json
import sys
from time import perf_counter

import workloads


def main(argv):
    workload, seed = argv[1], int(argv[2])
    t0 = perf_counter()
    from ggred import cli
    t1 = perf_counter()
    for _, raw in workloads.configs(workload, seed):
        cli.setup_scenario(cli.load_config(raw))
    t2 = perf_counter()
    import reference  # after the timed import, which must load numpy itself
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0,
                      "reference_s": reference.sample()}))


if __name__ == "__main__":
    main(sys.argv)
