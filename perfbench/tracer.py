"""Spans around the public functions of each sechom layer, from outside.

`Tracer.install()` replaces every traced function at every site that
holds it: the defining module and each module that imported it by name
(``cli`` imports ``hh`` from ``homology``, for example).  Methods are
replaced on their class.  A span records its name, start and end in
``perf_counter_ns``, the span that was open when it started, and the
request id the benchmark set.  Spans stay in memory until `write_spans`.

Self time is a span's duration minus the time covered by its direct
children.  Cache hits on ``boundary`` and ``cyclic_quotient`` are seen
from outside: a call is a hit when the same (triple, degree) returns the
very object an earlier call returned, so no private state is read.

A traced name that no longer exists makes `install` raise, so a rename
in ``src/`` cannot silently empty a layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import defaultdict

# (module, attribute) pairs; a dotted attribute is a method on a class.
TRACED = [
    ("triples", "make_triple"),
    ("specfile", "triple_hash"),
    ("specfile", "parse_triple_file"),
    ("chains", "boundary"),
    ("chains", "cyclic_quotient"),
    ("linalg", "Subspace.__init__"),
    ("linalg", "Subspace.coords_of"),
    ("linalg", "Subspace.contains"),
    ("linalg", "SparseMat.__matmul__"),
    ("linalg", "nullspace"),
    ("linalg", "colspace"),
    ("linalg", "solve"),
    ("linalg", "induced_on_quotients"),
    ("homology", "hh"),
    ("homology", "hc"),
    ("differentials", "omega"),
    ("differentials", "d_one_A_subspace"),
    ("kernel", "kernel_data"),
    ("kernel", "symmetry_check"),
    ("verify", "verify_prop_hh1_omega"),
    ("verify", "verify_cor_hc1"),
    ("verify", "verify_prop_omega_J"),
    ("verify", "verify_main"),
    ("verify", "verify_reduction_Bk"),
    ("oracles", "classical_hh_dims"),
    ("oracles", "classical_hc_dims"),
    ("oracles", "dense_rank"),
    ("cli", "main"),
]

LAYERS = sorted({module for module, _ in TRACED})

# Span names where the attribute name would be awkward in a metric name.
_SPAN_NAME = {"SparseMat.__matmul__": "SparseMat.matmul",
              "Subspace.__init__": "Subspace"}


class MissingTraceTarget(RuntimeError):
    """A function the tracer must wrap is gone from the package."""


def _entry_bits(rows) -> int:
    bits = 0
    for row in rows:
        for x in row.values():
            bits = max(bits, abs(x.numerator).bit_length(),
                       x.denominator.bit_length())
    return bits


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list = []  # (id, name, start_ns, end_ns, parent, request)
        self.request = None
        self._stack: list = []  # open spans: [id, start_ns, child_ns]
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)  # named counters beside the spans
        self._seen = {"chains.boundary": weakref.WeakKeyDictionary(),
                      "chains.cyclic_quotient": weakref.WeakKeyDictionary()}
        self._patches: list = []  # (owner, attribute, original)

    # -- spans -----------------------------------------------------------

    def _enter(self) -> list:
        frame = [len(self.spans) + len(self._stack), time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, start, child_ns = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((span_id, name, start, end,
                           parent[0] if parent else None, self.request))
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child_ns

    def _wrap(self, name: str, func):
        after = _AFTER.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = self._enter()
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # -- per-function counters -------------------------------------------

    def _cache_probe(self, name: str, T, n: int, result) -> bool:
        seen = self._seen[name].setdefault(T, {})
        hit = seen.get(n) == id(result)
        seen[n] = id(result)
        self.counts[name + ".hits"] += hit
        return hit

    def _subspace_init(self, orig):
        tracer = self

        @functools.wraps(orig)
        def __init__(sub, ambient_dim, vectors=()):
            def counted(it):
                for v in it:
                    tracer.counts["linalg.Subspace.vectors_in"] += 1
                    yield v

            frame = tracer._enter()
            try:
                orig(sub, ambient_dim, counted(vectors))
            finally:
                tracer._exit("linalg.Subspace", frame)
            tracer.counts["linalg.Subspace.rank_out"] += len(sub.rows)
            bits = _entry_bits(sub.rows)
            if bits > tracer.counts["linalg.Subspace.max_entry_bits"]:
                tracer.counts["linalg.Subspace.max_entry_bits"] = bits

        return __init__

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function; raise if any of them is missing."""
        import sechom.cli  # noqa: F401  (loads every layer)
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "sechom" or name.startswith("sechom.")}
        for module, attr in TRACED:
            mod = package.get(f"sechom.{module}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or method not in vars(owner):
                raise MissingTraceTarget(f"sechom.{module}.{attr} no longer exists")
            orig = vars(owner)[method]
            name = f"{module}.{_SPAN_NAME.get(attr, attr)}"
            if attr == "Subspace.__init__":
                wrapped = self._subspace_init(orig)
            else:
                wrapped = self._wrap(name, orig)
            if owner_name:
                self._patch(owner, method, orig, wrapped)
                continue
            for site in package.values():
                for key, value in list(vars(site).items()):
                    if value is orig:
                        self._patch(site, key, orig, wrapped)

    def _patch(self, owner, key, orig, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def layer_calls(self) -> dict:
        out = {layer: 0 for layer in LAYERS}
        for name, n in self.calls.items():
            out[name.split(".", 1)[0]] += n
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# -- per-function counters, run after a traced call returns --------------

def _after_boundary(tracer: Tracer, args, M) -> None:
    if not tracer._cache_probe("chains.boundary", args[0], args[1], M):
        tracer.counts["chains.boundary.cols"] += M.ncols
        tracer.counts["chains.boundary.nnz"] += M.nnz


def _after_cyclic(tracer: Tracer, args, Q) -> None:
    if not tracer._cache_probe("chains.cyclic_quotient", args[0], args[1], Q):
        tracer.counts["chains.cyclic_quotient.ambient"] += Q.ambient_dim
        tracer.counts["chains.cyclic_quotient.dim"] += Q.dim


def _after_report(tracer: Tracer, args, report) -> None:
    tracer.counts["verify.checks"] += len(report.checks)


_AFTER = {
    "chains.boundary": _after_boundary,
    "chains.cyclic_quotient": _after_cyclic,
    **{f"verify.{attr}": _after_report
       for module, attr in TRACED if module == "verify"},
}
