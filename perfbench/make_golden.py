"""Capture the frozen outputs the benchmark checks every request against.

    python3 perfbench/make_golden.py

Runs every catalog request of every workload once through
``sechom.cli.main([..., "--format", "machine"])`` and writes the exact
output to golden.json.  Run it only on a commit whose outputs are trusted:
the benchmark fails any later run whose output differs by one byte.

It also recomputes, by the independent dense reference path in
``sechom.oracles``, the cyclic dimensions the workloads report beyond the
degrees the test suite checks, where that path's size cap allows, and
records which values rest on frozen engine output alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import bench

# Golden values past the degrees the test suite checks: (catalog name,
# degree, the request that reports it).
BEYOND_TESTS = [("trunc3_k", n, "hc-cyclic") for n in (4, 5, 6)] + \
               [("mat2_k", 4, "hc-cyclic")] + \
               [(name, 3, "hh-two-var")
                for name in ("dual_dual_zero", "dual_over_dual_id")]


def _run(cli, argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return out.getvalue()


def crosscheck(outputs: dict) -> list:
    """Compare golden hh/hc dimensions with the dense reference path."""
    from sechom.oracles import classical_hc_dims, classical_hh_dims
    from sechom.triples import catalog

    rows = []
    for name, n, workload in BEYOND_TESTS:
        argv = next(a for a in bench.catalog_requests(workload) if a[2] == name)
        flavor = argv[argv.index("--flavor") + 1]
        dims = {r["degree"]: r["dimension"]
                for r in json.loads(outputs[bench.golden_key(argv)])["results"]}
        row = {"triple": name, "flavor": flavor, "degree": n,
               "golden": dims[n]}
        T = catalog(name)
        if T.B.dim != 1:
            row["route"] = "frozen: B is not the ground field, no reference path"
        else:
            ref = classical_hc_dims if flavor == "hc" else classical_hh_dims
            try:
                row["reference"] = ref(T.A, n)[n]
            except ValueError as exc:  # the oracle's ambient-dimension cap
                row["route"] = f"frozen: {exc}"
            else:
                if row["reference"] != row["golden"]:
                    raise SystemExit(f"reference path disagrees: {row}")
                row["route"] = "reference path agrees"
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)
    return rows


def main() -> int:
    cli = bench.import_sechom()
    outputs = {}
    for workload in bench.WORKLOADS:
        for argv in bench.catalog_requests(workload):
            key = bench.golden_key(argv)
            if key not in outputs:
                outputs[key] = _run(cli, argv)
    doc = {"outputs": outputs, "beyond_tests": crosscheck(outputs)}
    with open(bench.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(outputs)} outputs to {bench.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
