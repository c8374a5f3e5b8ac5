"""Set-up probe, run in a fresh interpreter: import ofdmsar, build the inputs.

Usage: python3 perfbench/probe.py WORKLOAD SEED [short]

Prints one JSON line with the import time of ``ofdmsar.cli`` and the time to
build the workload's inputs. The caller times the whole process as set-up.
"""

import json
import sys
import time

import inputs


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    inputs.use_checkout_src()
    t0 = time.perf_counter()
    import ofdmsar.cli  # noqa: F401

    t1 = time.perf_counter()
    inputs.build(workload, seed, short=len(sys.argv) > 3)
    t2 = time.perf_counter()
    print(json.dumps({"import_ofdmsar_s": t1 - t0, "build_s": t2 - t1}))


if __name__ == "__main__":
    main()
