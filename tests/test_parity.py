"""Smoke tests of `tools/parity.py`, the checkout-against-checkout output
comparison and code-line count."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parity():
    spec = importlib.util.spec_from_file_location(
        "parity", ROOT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkout_against_itself_is_identical():
    parity = _parity()
    results = parity.compare(ROOT, ROOT, ["winding_2d_32"])
    assert results == {"winding_2d_32": {
        "identical": True, "differ": [], "csv": {}, "files": 1,
        "status": [0, 0]}}


def test_csv_changes_per_column():
    parity = _parity()
    a = b"t,energy,note\n0,1.0,x\n0.5,2.0,x\n"
    b = b"t,energy,note\n0,1.0,x\n0.5,2.5,y\n"
    assert parity.csv_changes(a, b) == {"t": 0.0, "energy": 0.2,
                                        "note": None}
    assert parity.csv_changes(a, a + b"1,3.0,x\n") == {"<shape>": None}
    # equal numbers written differently, and a field that is not finite
    zeros = (b"t,p\n0,0.0\n0.5,1.0\n", b"t,p\n0.0,-0.0\n0.5,inf\n")
    assert parity.csv_changes(*zeros) == {"t": 0.0, "p": None}
    assert parity.csv_changes(zeros[0], b"t,p\n0,-0.0\n0.5,1.0\n") == {
        "t": 0.0, "p": 0.0}


def test_code_lines_skip_comments_docstrings_and_blanks():
    parity = _parity()
    source = ('"""Module\n docstring."""\n\n# a comment\n'
              'def f(x):\n    """Doc."""\n    return (x +  # inline\n'
              '            1)\n\nS = """not a\ndocstring"""\n')
    # def, return and its continuation, the string assignment's two lines
    assert parity.code_lines(source) == 5
