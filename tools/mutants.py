"""Replay hand mutations of the engine and report which ones the tests kill.

A mutant names a file under src/sechom/, an exact piece of its text that
must occur there once, the text that replaces it, and the test files (or
pytest node ids in them) that should fail with it.  For each mutant the runner copies src/, tests/ and
pyproject.toml to a temporary directory, applies the mutant there and runs
pytest on its test files from that directory, so pyproject.toml's
`pythonpath` imports the mutated copy.  A mutant is killed when pytest
exits nonzero on its files.  Before any mutant runs, the unmutated copy
must pass every targeted test file.

    python tools/mutants.py          # every mutant
    python tools/mutants.py --ci     # the fast subset CI runs

Exit status: 0 when every mutant run is killed, 1 when one survives, 2 when
the unmutated copy fails or a mutant's text is not found exactly once.
Standard library only; pytest must be importable by this interpreter.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/sechom/
    old: str
    new: str
    tests: tuple  # test files or node ids, relative to tests/, expected to fail
    ci: bool = False  # in the fast subset


MUTANTS = [
    Mutant("face-skips-a-copy", "chains.py",
           "    for ci, co in copies:\n        for pi, po, c in items:\n"
           "            col = get(ci + pi)\n",
           "    for ci, co in copies[1:]:\n        for pi, po, c in items:\n"
           "            col = get(ci + pi)\n", ("test_chains.py",)),
    Mutant("face-skips-an-item", "chains.py",
           "        for pi, po, c in items:\n"
           "            col = get(ci + pi)\n",
           "        for pi, po, c in items[:-1]:\n"
           "            col = get(ci + pi)\n", ("test_chains.py",)),
    Mutant("face-keeps-a-cancelled-zero", "chains.py",
           "                    del col[r]\n",
           "                    col[r] = x\n", ("test_chains.py",)),
    # The one projected scatter of both routes to an induced boundary,
    # whole and by content block.
    Mutant("projected-scatter-drops-the-row-sign", "chains.py",
           "x = c * sign[r] * src_sign[i]", "x = c * src_sign[i]",
           ("test_chains.py",)),
    Mutant("projected-scatter-drops-the-source-sign", "chains.py",
           "x = c * sign[r] * src_sign[i]", "x = c * sign[r]",
           ("test_chains.py",)),
    # The one orbit walk, of the whole degree and of each content block,
    # checks P (1 - t) = 0 as an orbit closes, and maps a dead orbit to 0;
    # a content key one digit off lets the rotation leave a block.
    Mutant("block-class-map-unchecked", "chains.py",
           "            if i != m:\n                raise InternalCheckError(\n",
           "            if False:\n                raise InternalCheckError(\n",
           ("test_chains.py::test_a_block_whose_class_map_keeps_one_minus_"
            "rotation_is_refused",), ci=True),
    Mutant("walk-keeps-a-dead-orbit", "chains.py",
           "            if s < 0:  # the orbit is dead\n",
           "            if False:\n", ("test_chains.py",), ci=True),
    Mutant("orbit-in-the-wrong-block", "chains.py",
           "return [a] * (n + 1) + [b]",
           "return [a[1:] + a[:1]] + [a] * n + [b]",
           ("test_chains.py::test_orbit_blocks_merge_to_the_class_map",)),
    Mutant("blocks-drop-a-weight", "chains.py",
           "    for k in sorted(work):\n",
           "    for k in [k for k in sorted(work)\n"
           "              if k // base > min(work) // base]:\n",
           ("test_chains.py", "test_homology.py")),
    # A sub-block's one-entry columns are kept as rows, never dropped.
    Mutant("sub-block-drops-its-units", "chains.py",
           "            elif col:\n                units.update(col)\n",
           "",
           ("test_chains.py::test_boundary_blocks_are_the_boundary_by_weight",),
           ci=True),
    # Every term stays right without the fold; only the held counts tell.
    Mutant("face-plans-never-fold", "chains.py",
           "while copied and len(items)", "while False and len(items)",
           ("test_chains.py::test_face_plans_fold_copies_into_items_and_"
            "keep_every_term",), ci=True),
    # Copies and items are keyed by their input offsets; left with the key
    # of index 0, a copy's key is off by it wherever the digit 0's key is
    # nonzero, as under the content keys.
    Mutant("plan-copy-key-keeps-index-zero", "chains.py",
           "zip((copies, items), filed, (zero, 0))",
           "zip((copies, items), filed, (0, 0))",
           ("test_chains.py::test_plans_by_key_file_every_term_once_under_"
            "its_input_key",), ci=True),
    Mutant("sandwich-unsorted", "triples.py",
           "tuple(sorted(_int_product(", "tuple((_int_product(",
           ("test_chains.py",)),
    Mutant("sandwich-den-one-aden", "triples.py",
           "self.sden = self.aden ** 2 * self.lden",
           "self.sden = self.aden * self.lden", ("test_chains.py",)),
    Mutant("eps-check-scaled-by-bden", "triples.py",
           "_summed((m, tb.aden * tb.lden * x * y)",
           "_summed((m, tb.bden * tb.lden * x * y)",
           ("test_triples.py",), ci=True),
    Mutant("report-eq-ignores-a-witness", "algebra.py",
           "self.commutative, self.comm_witness)\n"
           "                == (other.associative, other.assoc_witness, "
           "other.unital,\n"
           "                    other.unit_witness, other.commutative, "
           "other.comm_witness))",
           "self.commutative)\n"
           "                == (other.associative, other.assoc_witness, "
           "other.unital,\n"
           "                    other.unit_witness, other.commutative))",
           ("test_algebra.py",), ci=True),
    Mutant("triple-hash-keeps-the-name", "specfile.py",
           "T.commutative, name=\"\"))", "T.commutative, name=T.name))",
           ("test_specfile.py",), ci=True),
    Mutant("central-against-e0-only", "algebra.py",
           "for i in range(len(prod))))", "for i in range(1)))",
           ("test_algebra.py",), ci=True),
    Mutant("central-skips-the-last-vector", "algebra.py",
           "for i in range(len(prod))))", "for i in range(len(prod) - 1)))",
           ("test_algebra.py", "test_triples.py"), ci=True),
    Mutant("spec-allows-a-repeated-unit", "specfile.py",
           'if head in ("name", "max_degree", "algebra", "unit"):',
           'if head in ("name", "max_degree", "algebra"):',
           ("test_specfile.py",), ci=True),
    Mutant("export-keeps-any-name", "specfile.py",
           'if "#" in T.name or any(c.isspace() for c in T.name):',
           "if False:", ("test_specfile.py",), ci=True),
    Mutant("sparse-mat-takes-any-column", "linalg.py",
           "if not 0 <= c < ncols:", "if False:", ("test_linalg.py",)),
    # The Kronecker zero test's one packer: its slot width, its repack for
    # a wider vector, and the width product_is_zero packs for.
    Mutant("packed-slot-one-bit-short", "linalg.py",
           "(self._top * room).bit_length()",
           "(self._top * room).bit_length() - 1", ("test_linalg.py",)),
    # The packed tests close test_linalg.py, so CI runs just the one that
    # kills this mutant.
    Mutant("kernel-test-never-repacks", "linalg.py",
           "if width > self._room:", "if self._room < 0:",
           ("test_linalg.py::test_kernel_test_repacks_for_wider_vectors",),
           ci=True),
    Mutant("packed-width-from-the-largest-entry", "linalg.py",
           "room = max(map(sum, (map(abs, col.values()) for col in cols)))",
           "room = max(map(max, (map(abs, col.values()) for col in cols)))",
           ("test_linalg.py",)),
    # The one descent check of every route to an induced boundary.
    Mutant("descent-check-skipped", "linalg.py",
           "if [None if a is None else F[a] for a in axis] != F:",
           "if False:", ("test_chains.py",), ci=True),
    Mutant("connes-b-drops-a-term", "verify.py",
           "for pair in ((j, i), (i, j)))", "for pair in ((j, i),))",
           ("test_degree_one.py",)),
    Mutant("unit-law-skips-the-last-index", "algebra.py",
           "    for i in range(d):\n        if not (_int_product(prod, unit,",
           "    for i in range(d - 1):\n        if not (_int_product(prod, unit,",
           ("test_algebra.py", "test_triples.py"), ci=True),
    Mutant("prop4-pullback-skips-the-back-check", "verify.py",
           "if FP._times(row) != {r: FP.den * x for r, x in row.items()}\n"
           "                 or not P.relations",
           "if not P.relations", ("test_verify.py",), ci=True),
    Mutant("dense-rank-skips-the-last-row", "oracles.py",
           "    for row in M:\n", "    for row in M[:-1]:\n",
           ("test_oracles.py",), ci=True),
    Mutant("dense-rank-drops-a-cleared-row", "oracles.py",
           "filed.setdefault(min(new), []).append(new)", "pass",
           ("test_oracles.py",)),
    Mutant("dense-rank-pivot-from-another-row", "oracles.py",
           "p = piv[col]", "p = group[0][col]", ("test_oracles.py",)),
    Mutant("i-basis-drops-the-unit-term", "oracles.py",
           "(k * d + l, -a * b)", "(k * d + l, 0)", ("test_oracles.py",),
           ci=True),
    # Interior faces project along e_j0, not along the unit: the e_j0 terms
    # of their products drop, which is right only when u = e_j0.
    Mutant("normalized-face-keeps-the-unit-part", "oracles.py",
           "for k, x in mult[i][j]\n", "for k, x in mult[i][j] if k != j0\n",
           ("test_oracles.py",)),
    Mutant("connes-B-drops-the-cyclic-sign", "oracles.py",
           "(-1) ** (n * i) * y", "y", ("test_oracles.py",), ci=True),
    Mutant("kahler-accepts-a-noncommutative-a", "oracles.py",
           '    _require_commutative(A, "the Kahler reference")\n', "",
           ("test_oracles.py",), ci=True),
    Mutant("segment-kernel-check-always-passes", "verify.py",
           "its kernel is exactly the image of A\", ker == image,",
           "its kernel is exactly the image of A\", True,",
           ("test_homology.py",)),
    # d squared on a one-entry column, in closed form.
    Mutant("unit-square-unchecked", "homology.py",
           "if any(map(d.num.get, units)) or not _kills(",
           "if not _kills(", ("test_homology.py::"
                              "test_a_one_entry_column_off_the_kernel_is_a_"
                              "nonzero_square",), ci=True),
    Mutant("span-drops-the-unit-rows", "homology.py",
           "rows = [(k, {k: 1}) for k in members if pivots[k] not in live]",
           "rows = []", ("test_homology.py",)),
    # A one-entry column off its block's weight would settle a coordinate
    # of another block.
    Mutant("block-weight-unchecked", "homology.py",
           "            if weights[r] != w:\n", "            if False:\n",
           ("test_homology.py",)),
    # The residue keeps every settled coordinate, units and peeled ones.
    Mutant("span-keeps-the-unit-coordinates", "homology.py",
           "v = {live[p]: x for p, x in col.items() if p in live}",
           "v = {pos[p]: x for p, x in col.items() if p in pos}",
           ("test_homology.py",)),
    # A column read with two live coordinates is kept, neither peeled nor
    # dropped.
    Mutant("arrival-drops-a-two-coordinate-column", "homology.py",
           "            if n > 1:\n                part.append(col)\n"
           "            elif n:\n",
           "            if n > 2:\n                part.append(col)\n"
           "            elif n == 1:\n",
           ("test_homology.py::test_relations_are_every_columns_span_however_"
            "the_parts_come",)),
    # A kept column left with two live coordinates peels one of them.
    Mutant("peel-takes-a-two-coordinate-column", "homology.py",
           "stack = [c for c, n in enumerate(count) if n == 1]",
           "stack = [c for c, n in enumerate(count) if n == 2]",
           ("test_homology.py::test_relations_are_every_columns_span_however_"
            "the_parts_come",)),
    Mutant("peel-skips-the-decrement", "homology.py",
           "                count[c] -= 1\n", "", ("test_homology.py",)),
    Mutant("peel-leaves-a-peeled-coordinate-in-the-residue", "homology.py",
           "            del live[k]\n", "", ("test_homology.py",)),
    # Only triples whose B is not the ground field reach these two.
    Mutant("face-bb-reads-one-product-row", "chains.py",
           "for a, row in enumerate(tb.bprod)",
           "for a, row in enumerate(tb.bprod[:1])", ("test_homology.py",)),
    Mutant("sandwich-for-the-first-eps-only", "triples.py",
           "for e_j in e] for f in self.eps] for e_i in e]",
           "for e_j in e] for f in self.eps[:1]] for e_i in e]",
           ("test_homology.py",)),
    Mutant("regrade-skips-the-table-check", "triples.py",
           "        return {i: x * dv for i, x in u.items()} == {\n"
           "            i: x * du for i, x in v.items()}\n",
           "        return True\n", ("test_regrade.py",)),
    Mutant("regrade-accepts-a-non-diagonalizable-derivation", "triples.py",
           "    if len(cols) != n:\n        return None\n", "",
           ("test_regrade.py",), ci=True),
]


def _copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(cwd: Path, tests) -> int:
    """Exit code of pytest on the test files, run from the copy at cwd and
    stopped at the first failure."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", *(f"tests/{t}" for t in tests)]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _source(root: Path, m: Mutant) -> Path:
    return root / "src" / "sechom" / m.file


def run(mutants: list) -> int:
    with tempfile.TemporaryDirectory(prefix="sechom-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        for m in mutants:  # every text is checked before anything runs
            found = _source(base, m).read_text("utf-8").count(m.old)
            if found != 1:
                print(f"ERROR  {m.name}: its text occurs {found} times "
                      f"in {m.file}, not once")
                return 2
        targets = sorted({t for m in mutants for t in m.tests})
        start = time.perf_counter()
        if _pytest(base, targets) != 0:
            print(f"ERROR  the unmutated copy fails {' '.join(targets)}")
            return 2
        print(f"baseline passes {len(targets)} files "
              f"({time.perf_counter() - start:.1f} s)")
        survivors = 0
        for m in mutants:
            start = time.perf_counter()
            work = Path(tmp) / m.name
            _copy_tree(work)
            path = _source(work, m)
            path.write_text(path.read_text("utf-8").replace(m.old, m.new),
                            "utf-8")
            code = _pytest(work, m.tests)
            shutil.rmtree(work)
            survivors += code == 0
            verdict = "killed  " if code else "SURVIVED"
            print(f"{verdict} {m.name:48s} {m.file:14s} "
                  f"exit {code}  {time.perf_counter() - start:5.1f} s")
        print(f"{len(mutants) - survivors} of {len(mutants)} killed")
        return 1 if survivors else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ci", action="store_true", help="the fast subset")
    args = ap.parse_args(argv)
    return run([m for m in MUTANTS if m.ci or not args.ci])


if __name__ == "__main__":
    sys.exit(main())
