"""Set-up probe: import apndoa in a fresh process and make a workload's
first call.

    python3 apnbench/setup_probe.py WORKLOAD SEED SPAWN_TIME

``SPAWN_TIME`` is the ``time.time()`` of the parent just before it
started this process.  Prints one JSON line, ``{"setup_s": ...}``: the
time from then until the first call has returned, less the time this
process spent making the benchmark's own inputs.
"""

import json
import sys
import time

import run

if __name__ == "__main__":
    pkg = run.import_package()
    t0 = time.perf_counter()
    import workloads

    excluded = time.perf_counter() - t0
    wl = workloads.WORKLOADS[sys.argv[1]](pkg, int(sys.argv[2]), run.OUT)
    excluded += wl.first_call()
    print(json.dumps({"setup_s": time.time() - float(sys.argv[3]) - excluded}))
