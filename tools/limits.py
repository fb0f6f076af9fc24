"""Time hh and hc in degree 4 on the largest triples the engine reaches.

Each row runs `hh(T, 4, max_degree=4)` or `hc(T, 4, max_degree=4)` alone
in a fresh Python process, on this tree's src/, and reports the CPU
seconds of that call (`time.process_time`) and the process's peak RSS
(`ru_maxrss`) when it returns.  The row then asserts that the dimension
equals `classical_hh_dims` or `classical_hc_dims` of A in degree 4; the
oracle runs after both readings, so neither counts it.

    python tools/limits.py                  # dual_dual_x, dual_dual_zero
    python tools/limits.py sqzero_dual_x    # and a triple of tests/_shared.py

The rows always cover the catalog triples `dual_dual_x` and
`dual_dual_zero`; a name given on the command line adds hh and hc rows
for a catalog triple of that name, or else for the triple that the
function of that name in tests/_shared.py makes (`sqzero_dual_x`,
`trunc3_over_dual_x2`, ...).  Such a process imports tests/_shared.py
and so every sechom module, which its RSS includes.  On a 2-vCPU Xeon,
`sqzero_dual_x` took 26 s and 345 MB in hh, 22 s and 639 MB in hc.

Exit status: 0 when every dimension matches its oracle, 1 otherwise,
also when a row's process fails (its stderr is printed).
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEGREE = 4
DEFAULT_TRIPLES = ["dual_dual_x", "dual_dual_zero"]
# Run as `python -c _ROW ROOT FLAVOR NAME`; prints one JSON object.
_ROW = """
import json, resource, sys, time
root, flavor, name = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/tests"]
from sechom import catalog, catalog_names, hc, hh
from sechom.oracles import classical_hc_dims, classical_hh_dims
if name in catalog_names():
    T = catalog(name)
else:
    import _shared
    T = getattr(_shared, name)()
n = %d
start = time.process_time()
dim = (hh if flavor == "hh" else hc)(T, n, max_degree=n).dimension
cpu = time.process_time() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
oracle = (classical_hh_dims if flavor == "hh" else classical_hc_dims)(T.A, n)
print(json.dumps({"dim": dim, "oracle": oracle[n], "cpu_s": cpu,
                  "maxrss_kb": rss}))
""" % DEGREE


def row(flavor: str, name: str):
    """One row, measured in a fresh process, or None when that process
    fails; its stderr, the traceback included, is then printed."""
    child = subprocess.run([sys.executable, "-c", _ROW, str(ROOT), flavor,
                            name], capture_output=True, text=True)
    if child.returncode:
        sys.stderr.write(child.stderr)
        return None
    return json.loads(child.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("triples", nargs="*",
                    help="more triples: catalog names or tests/_shared.py "
                         "makers")
    args = ap.parse_args(argv)
    names = DEFAULT_TRIPLES + [t for t in args.triples
                               if t not in DEFAULT_TRIPLES]
    print(f"Python {sys.version.split()[0]}, degree {DEGREE}")
    wrong = 0
    for name in names:
        for flavor in ("hh", "hc"):
            r = row(flavor, name)
            if r is None:
                wrong += 1
                print(f"{flavor} {name:22s} FAILED", flush=True)
                continue
            ok = r["dim"] == r["oracle"]
            wrong += not ok
            print(f"{flavor} {name:22s} dim {r['dim']:3d}  "
                  f"{'=' if ok else '!='} oracle {r['oracle']:3d}  "
                  f"{r['cpu_s']:6.2f} s  {r['maxrss_kb'] / 1024:7.1f} MB",
                  flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
