"""Load a committed BENCH_*.json baseline for a CI gate.

    import sys
    sys.path.insert(0, ".github/scripts")
    from committed_baseline import committed
    base = committed("BENCH_scale.json")

Reads the file as committed at HEAD. A gate whose baseline is not
committed, or does not parse, fails loudly: it prints one line naming
the file and exits 1, instead of a traceback.
"""

import json
import subprocess
import sys


def committed(name):
    proc = subprocess.run(["git", "show", f"HEAD:{name}"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"missing committed baseline {name}")
        sys.exit(1)
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as err:
        print(f"unreadable committed baseline {name}: {err}")
        sys.exit(1)
