"""Every module of the package stays below CPython's 8,192-token parser step:
past it, compiling the module takes more memory, which a process that
compiles its modules from source shows in its peak RSS."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("record_bench", ROOT / "scripts" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "relzeros").glob("*.py")),
                         ids=lambda path: path.name)
def test_module_has_fewer_tokens_than_the_parser_step(path):
    assert record_bench.tokens(path) < 8192
