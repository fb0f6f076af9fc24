"""Command line interface.

Subcommands: validate, compute, verify, export.  A triple comes either
from a file path or from the built-in catalog via --catalog.  Exit codes:
0 success, 1 a verification or cross-check failed, 2 malformed input
file or arguments, 3 axiom or precondition violation, 4 resource cap
exceeded without an override.

Machine-readable output (--format machine) is deterministic JSON with
sorted keys and no timing information, so identical invocations produce
byte-identical reports; the human format adds wall-clock timing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .homology import DEFAULT_MAX_DEGREE, DegreeCapError, check_degree, hc, hh
from .kernel import kernel_data, symmetry_check
from .linalg import basis_vector
from .differentials import d_one_A_subspace, omega
from .oracles import (ReferenceCapError, classical_hh_dims,
                      classical_hc_dims, classical_I_mod_I2_dim,
                      classical_kahler_dim)
from .specfile import (ParsedTriple, SpecParseError, export_triple,
                       parse_triple_file, triple_hash)
from .triples import (CommutativeTripleRequiredError, Triple,
                      TripleAxiomError, catalog, catalog_names)
from .verify import (TheoremReport, verify_cor_hc1, verify_main,
                     verify_prop_hh1_omega, verify_prop_omega_J,
                     verify_reduction_Bk)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RESOURCE = 4
_parser = None  # the argparse parser, built by main on its first call

_THEOREM_FUNCS = {
    "hh1_omega": verify_prop_hh1_omega,
    "hc1": verify_cor_hc1,
    "omega_kernel": verify_prop_omega_J,
    "main": verify_main,
}


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _triple_meta(T: Triple) -> dict:
    return {
        "name": T.name or "<unnamed>",
        "hash": triple_hash(T),
        "dim_A": T.A.dim,
        "dim_B": T.B.dim,
        "commutative": T.commutative,
    }


def _load(args) -> ParsedTriple:
    if args.catalog is not None and args.path is not None:
        raise _CliError("give either a file path or --catalog, not both",
                        EXIT_PARSE)
    if args.catalog is not None:
        try:
            return ParsedTriple(catalog(args.catalog), args.catalog, None)
        except KeyError as exc:
            raise _CliError(str(exc.args[0]), EXIT_VALIDATION) from None
    if args.path is None:
        raise _CliError("a file path or --catalog is required", EXIT_PARSE)
    try:
        return parse_triple_file(args.path)
    except FileNotFoundError:
        raise _CliError(f"no such file: {args.path}", EXIT_PARSE) from None
    except OSError as exc:
        raise _CliError(f"cannot read {args.path}: {exc.strerror}",
                        EXIT_PARSE) from None
    except UnicodeDecodeError:
        raise _CliError(f"cannot read {args.path}: not UTF-8 text",
                        EXIT_PARSE) from None
    except SpecParseError as exc:
        raise _CliError(f"parse error: {exc}", EXIT_PARSE) from None
    except TripleAxiomError as exc:
        raise _CliError(f"invalid triple: {exc}", EXIT_VALIDATION) from None


def _parse_degrees(spec: str, cap: int) -> tuple:
    """The requested degrees up to the cap, sorted, and the smallest one
    above it (None if there is none).  No range is expanded past the cap."""
    out = set()
    over = None
    lowest = 0
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, _, hi = part.partition("..")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                raise _CliError(f"bad degree range {part!r}", EXIT_PARSE) \
                    from None
            if lo_i > hi_i:
                raise _CliError(f"empty degree range {part!r}", EXIT_PARSE)
        else:
            try:
                lo_i = hi_i = int(part)
            except ValueError:
                raise _CliError(f"bad degree {part!r}", EXIT_PARSE) from None
        lowest = min(lowest, lo_i)
        out.update(range(lo_i, min(hi_i, cap) + 1))
        if hi_i > cap:
            first = max(lo_i, cap + 1)
            over = first if over is None else min(over, first)
    if lowest < 0:
        raise _CliError("degrees must be nonnegative", EXIT_PARSE)
    return sorted(out), over


def _report_dict(rep: TheoremReport) -> dict:
    return {
        "triple": rep.triple_name,
        "theorem": rep.theorem,
        "passed": rep.passed,
        "dims": dict(sorted(rep.dims.items())),
        "checks": [[label, ok] for label, ok in rep.checks],
        "witness": rep.witness,
    }


def _emit(payload: dict, args, started: float) -> None:
    if args.format == "machine":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return
    _emit_human(payload)
    print(f"completed in {time.monotonic() - started:.3f}s")


def _emit_human(payload: dict) -> None:
    cmd = payload["command"]
    meta = payload.get("triple")
    if meta:
        print(f"triple {meta['name']}  (dim A = {meta['dim_A']}, "
              f"dim B = {meta['dim_B']}, "
              f"{'commutative' if meta['commutative'] else 'noncommutative'})")
        print(f"hash {meta['hash']}")
    if cmd == "validate":
        print("all axioms hold")
    elif cmd == "compute":
        flavor = payload["flavor"]
        if flavor in ("hh", "hc"):
            print(f"{'degree':>6}  {'dimension':>9}")
            for row in payload["results"]:
                print(f"{row['degree']:>6}  {row['dimension']:>9}")
        else:
            for k, v in payload["results"].items():
                print(f"{k} = {v}")
        for row in payload.get("representatives", []):
            print(f"representative ({row['label']}): {row['vector']}")
        if "reference" in payload:
            print(f"reference comparison: "
                  f"{'agrees' if payload['reference']['agrees'] else 'DISAGREES'}")
    elif cmd == "verify":
        for rep in payload["reports"]:
            status = "pass" if rep["passed"] else "FAIL"
            dims = ", ".join(f"{k}={v}" for k, v in rep["dims"].items())
            print(f"[{status}] {rep['theorem']} on {rep['triple']}  ({dims})")
            if not rep["passed"]:
                for label, ok in rep["checks"]:
                    if not ok:
                        print(f"    failed: {label}")
                if rep["witness"]:
                    print(f"    witness: {rep['witness']}")
        for skip in payload.get("skipped", []):
            print(f"[skip] {skip['theorem']} on {skip['triple']}: "
                  f"{skip['reason']}")


def _cap_from(args, parsed: ParsedTriple) -> int:
    cap = DEFAULT_MAX_DEGREE
    if parsed.max_degree is not None:
        cap = parsed.max_degree
    if args.max_degree_override is not None:
        if args.max_degree_override < 0:
            raise _CliError("--max-degree-override must be nonnegative",
                            EXIT_PARSE)
        cap = args.max_degree_override
    return cap


def _require_ground_field(T: Triple, what: str) -> None:
    """Refuse, as a precondition failure, a request that needs B = Q."""
    if T.B.dim != 1:
        raise _CliError(f"{what} B to be the ground field", EXIT_VALIDATION)


def _require_commutative(T: Triple, what: str) -> None:
    """Refuse, as a precondition failure, a request that needs a
    commutative A; callers refuse before the reference, which would raise."""
    try:
        T.require_commutative(what)
    except CommutativeTripleRequiredError as exc:
        raise _CliError(str(exc), EXIT_VALIDATION) from None


def _reference(args, oracle, T: Triple, *rest):
    """oracle(A, *rest) under --oracle, else None.  Callers run it before
    the engine, so a reference over its size cap is refused before any
    engine work."""
    if not args.oracle:
        return None
    _require_ground_field(T, "reference comparison requires")
    return oracle(T.A, *rest)


def _cmd_validate(args) -> int:
    started = time.monotonic()
    parsed = _load(args)
    payload = {
        "tool": "sechom",
        "version": __version__,
        "command": "validate",
        "triple": _triple_meta(parsed.triple),
        "status": "valid",
    }
    _emit(payload, args, started)
    return EXIT_OK


def _cmd_compute(args) -> int:
    started = time.monotonic()
    parsed = _load(args)
    T = parsed.triple
    cap = _cap_from(args, parsed)
    payload = {
        "tool": "sechom",
        "version": __version__,
        "command": "compute",
        "flavor": args.flavor,
        "triple": _triple_meta(T),
    }
    reps_out = []
    if args.flavor in ("hh", "hc"):
        func = hh if args.flavor == "hh" else hc
        degrees, over = _parse_degrees(args.degree, cap)
        if over is not None:  # refused before any degree is computed
            try:
                check_degree(T, over, cap)
            except DegreeCapError as exc:
                raise _CliError(str(exc), EXIT_RESOURCE) from None
        ref = _reference(args, classical_hh_dims if args.flavor == "hh"
                         else classical_hc_dims, T, max(degrees))
        dims, reps = {}, {}
        # Highest degree first: hh then streams only the top boundary and
        # finds each lower one in the memo, built once.
        for n in reversed(degrees):
            res = func(T, n, max_degree=cap)
            dims[n] = res.dimension
            if args.representatives:
                reps[n] = [{"label": f"{args.flavor}{n} class {i}",
                            "vector": [str(x) for x in rep]}
                           for i, rep in enumerate(res.representatives)]
        payload["results"] = [{"degree": n, "dimension": dims[n]}
                              for n in degrees]
        reps_out = [rep for n in degrees for rep in reps.get(n, ())]
        if ref is not None:
            agrees = all(dims[n] == ref[n] for n in degrees)
            payload["reference"] = {
                "agrees": agrees,
                "classical": {str(n): ref[n] for n in degrees}}
    elif args.flavor == "omega":
        _require_commutative(T, "the module of differential symbols")
        ref = _reference(args, classical_kahler_dim, T)
        P = omega(T)
        payload["results"] = {
            "ambient": P.ambient_dim,
            "relations": P.relations.dim,
            "dimension": P.dim,
            "d_one_A": d_one_A_subspace(T).dim,
        }
        if args.representatives:
            # Symbol class i is that of the ambient axis nonpivots[i].
            for i, c in enumerate(P.nonpivots):
                reps_out.append({"label": f"symbol class {i}",
                                 "vector": [str(x) for x in
                                            basis_vector(P.ambient_dim, c)]})
        if ref is not None:
            payload["reference"] = {"agrees": ref == P.dim,
                                    "classical": {"dimension": ref}}
    elif args.flavor == "kernel":
        _require_commutative(T, "the kernel presentation")
        ref = _reference(args, classical_I_mod_I2_dim, T)
        K = kernel_data(T)
        payload["results"] = {
            "ambient": K.m_matrix.ncols,
            "kernel": K.J.dim,
            "j_squared": K.j_squared.dim,
            "j_hat": K.j_hat.dim,
            "j_hat_closed": K.j_hat_closed.dim,
            "relations_span": K.span_relations.dim,
            "relations": K.relations.dim,
            "readings_agree": K.readings_agree,
            "dimension": K.quotient.dim,
            "symmetric": symmetry_check(T),
        }
        if ref is not None:
            payload["reference"] = {"agrees": ref == K.quotient.dim,
                                    "classical": {"dimension": ref}}
    if reps_out:
        payload["representatives"] = reps_out
    _emit(payload, args, started)
    if "reference" in payload and not payload["reference"]["agrees"]:
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _reduction_report(T: Triple) -> TheoremReport:
    """The B = Q reduction battery, to degree 3 (degree 2 when dim A > 3)."""
    return verify_reduction_Bk(T, n_max=3 if T.A.dim <= 3 else 2)


def _battery(T: Triple) -> tuple:
    reports = []
    skipped = []
    if T.commutative:
        for func in (verify_prop_hh1_omega, verify_cor_hc1,
                     verify_prop_omega_J, verify_main):
            reports.append(func(T))
    else:
        for theorem in ("Prop3", "Cor3", "Prop4", "Thm_main"):
            skipped.append({"triple": T.name, "theorem": theorem,
                            "reason": "requires commutative A"})
    if T.B.dim == 1:
        reports.append(_reduction_report(T))
    return reports, skipped


def _cmd_verify(args) -> int:
    started = time.monotonic()
    reports = []
    skipped = []
    if args.catalog == "__ALL__" and args.path is None:  # else _load refuses
        if args.theorem != "all":
            raise _CliError("the whole catalog runs every check; --theorem "
                            "needs a file path or --catalog NAME", EXIT_PARSE)
        for name in catalog_names():
            got, skip = _battery(catalog(name))
            reports.extend(got)
            skipped.extend(skip)
        meta = None
    else:
        parsed = _load(args)
        T = parsed.triple
        meta = _triple_meta(T)
        if args.theorem == "all":
            reports, skipped = _battery(T)
        elif args.theorem == "reduction":
            _require_ground_field(T, "the reduction check needs")
            reports = [_reduction_report(T)]
        else:
            try:
                reports = [_THEOREM_FUNCS[args.theorem](T)]
            except CommutativeTripleRequiredError as exc:
                raise _CliError(f"precondition: {exc}", EXIT_VALIDATION) \
                    from None
    payload = {
        "tool": "sechom",
        "version": __version__,
        "command": "verify",
        "reports": [_report_dict(r) for r in reports],
        "skipped": skipped,
    }
    if meta is not None:
        payload["triple"] = meta
    _emit(payload, args, started)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL


def _cmd_export(args) -> int:
    parsed = _load(args)
    text = export_triple(parsed.triple, max_degree=parsed.max_degree)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(f"cannot write {args.out}: {exc.strerror}",
                            EXIT_PARSE) from None
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_source_args(p: argparse.ArgumentParser, catalog_all: bool = False):
    p.add_argument("path", nargs="?", default=None,
                   help="triple description file")
    if catalog_all:
        p.add_argument("--catalog", nargs="?", const="__ALL__", default=None,
                       metavar="NAME",
                       help="use a catalog triple; without NAME, run the "
                            "whole catalog")
    else:
        p.add_argument("--catalog", default=None, metavar="NAME",
                       help=f"use a catalog triple "
                            f"({', '.join(catalog_names())})")
    p.add_argument("--format", choices=("human", "machine"), default="human",
                   help="machine gives deterministic JSON without timing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sechom",
        description="Exact homological computations for triples (A, B, eps)")
    parser.add_argument("--version", action="version",
                        version=f"sechom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every axiom of a triple")
    _add_source_args(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("compute", help="dimensions and representatives")
    _add_source_args(p)
    p.add_argument("--flavor", choices=("hh", "hc", "omega", "kernel"),
                   default="hh")
    p.add_argument("--degree", default="0..2", metavar="SPEC",
                   help="degrees for hh/hc: N, N..M, or comma list "
                        "(default 0..2)")
    p.add_argument("--representatives", action="store_true",
                   help="also print basis class representatives")
    p.add_argument("--max-degree-override", type=int, default=None,
                   metavar="N", help="raise the degree cap; chain spaces "
                                     "grow steeply, watch memory")
    p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("verify", help="run the isomorphism checks")
    _add_source_args(p, catalog_all=True)
    p.add_argument("--theorem",
                   choices=("hh1_omega", "hc1", "omega_kernel", "main",
                            "reduction", "all"),
                   default="all")
    p.add_argument("--all", dest="theorem", action="store_const", const="all",
                   help="run every check (same as --theorem all)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export", help="canonical text form of a triple")
    _add_source_args(p)
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()  # built once per process
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except TripleAxiomError as exc:
        print(f"invalid triple: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DegreeCapError, ReferenceCapError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
