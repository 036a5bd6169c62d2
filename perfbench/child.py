"""Set-up timing in a fresh interpreter.

    python3 perfbench/child.py <workload> <scale>

Times ``import trunclc.cli`` and the workload's set-up from interpreter
start-up, and prints ``{"import_s": ..., "setup_s": ...}``.
"""

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    t0 = time.perf_counter()
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    import trunclc.cli  # noqa: F401  (the import is what is being timed)

    t1 = time.perf_counter()
    sys.path.insert(0, str(here))
    import workloads

    workloads.build(sys.argv[1], float(sys.argv[2]))
    print(json.dumps({"import_s": t1 - t0, "setup_s": time.perf_counter() - t0}))
