"""Smoke tests of `tools/parity.py`, the checkout-against-checkout output
comparison and code-line count."""

import importlib.util
from pathlib import Path

from nematicflow.verify import SUITES

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


def test_verify_suite_against_itself_is_identical():
    parity = _parity()
    assert set(parity.SUITES) == set(SUITES)
    results = parity.compare_suites(ROOT, ROOT, ["spectral"])
    assert results == {"verify spectral": {
        "identical": True, "differ": [], "csv": {}, "files": 0,
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


def test_code_lines_per_module(tmp_path):
    parity = _parity()
    package = tmp_path / "src" / "nematicflow"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('"""Package."""\nfrom . import a\n')
    (package / "a.py").write_text("# a comment\nx = 1\n\ny = (x,\n     2)\n")
    by_module = {"parent": parity.module_lines(tmp_path),
                 "change": {"a.py": 2}}
    assert by_module["parent"] == {"__init__.py": 1, "a.py": 3}
    assert parity._module_table(by_module).splitlines() == [
        "code lines by module:",
        f"    {'__init__.py':<18} 1 -> -",
        f"    {'a.py':<18} 3 -> 2"]


def test_peaks_of_the_run_and_each_phase():
    parity = _parity()
    found = parity.peaks(ROOT, "winding_2d_32")
    assert set(found) == {"run", *parity.PHASES}
    assert all(value >= 0 for value in found.values())
    # the run holds every phase's arrays at some point
    assert found["run"] >= max(found.values())


def test_peaks_of_a_checkout_that_fails_to_import_are_null(tmp_path):
    parity = _parity()
    package = tmp_path / "src" / "nematicflow"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('raise ImportError("broken")\n')
    found = parity.peaks(tmp_path, "winding_2d_32")
    assert found == dict.fromkeys(("run", *parity.PHASES))
    assert parity._mb(None) == "n/a"


def test_differing_columns_report_the_absolute_change_too():
    parity = _parity()
    a = b"t,omega_l2,energy\n0,0.0,1.0\n0.5,0.0,2.0\n"
    b = b"t,omega_l2,energy\n0,1.2e-47,1.0\n0.5,0.0,2.5\n"
    assert parity.csv_changes(a, b, parity._absolute) == {
        "t": 0.0, "omega_l2": 1.2e-47, "energy": 0.5}
    run = {"status": 0, "stdout": b""}
    result = parity.compare_outputs({**run, "files": {"ts.csv": a}},
                                    {**run, "files": {"ts.csv": b}})
    assert result["csv"] == {"ts.csv": {
        "t": {"relative": 0.0, "absolute": 0.0},
        # from exact 0 to roundoff: relative 1, absolute tiny
        "omega_l2": {"relative": 1.0, "absolute": 1.2e-47},
        "energy": {"relative": 0.2, "absolute": 0.5}}}
    peak = dict.fromkeys(parity.PEAKED, dict.fromkeys(("run", *parity.PHASES)))
    table = parity._table({"cfg": {**result, "status": [0, 0]}}, (1, 1),
                          {"parent": peak, "change": peak})
    assert "    ts.csv omega_l2: 1 (abs 1.2e-47)" in table.splitlines()
    assert "    ts.csv energy: 0.2 (abs 0.5)" in table.splitlines()
    assert "ts.csv t:" not in table
