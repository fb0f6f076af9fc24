"""The bytecode counter of tools/opcount.py repeats exactly."""

import importlib.util
from pathlib import Path

import sechom.cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "opcount.py"


def _opcount():
    spec = importlib.util.spec_from_file_location("opcount", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_counts_of_one_pass_are_equal_and_nonzero():
    opcount = _opcount()
    argvs = [["compute", "--catalog", "dual_k", "--flavor", "hh",
              "--degree", "0..2", "--format", "machine"],
             ["verify", "--catalog", "dual_k", "--format", "machine"]]
    per_request, by_code = opcount.count(sechom.cli, argvs)
    assert all(per_request)
    assert sum(by_code.values()) == sum(per_request)
    assert opcount.count(sechom.cli, argvs) == (per_request, by_code)
