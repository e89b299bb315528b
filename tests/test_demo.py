"""Smoke test: the demo runs against the current API and still finds
the matrix-algebra cases."""

import importlib.util
from pathlib import Path

DEMO = Path(__file__).resolve().parent.parent / "demos" / "matrix_algebras_from_cocycles.py"


def test_matrix_algebra_demo_runs(capsys):
    spec = importlib.util.spec_from_file_location("matrix_algebras_demo", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    lines = capsys.readouterr().out.splitlines()
    assert any("(n=3, k=1" in line and "center dim 1 (combinatorial) = 1 (numeric SVD), M_3(C)" in line for line in lines)
    assert any("(n=5, k=2" in line and "center dim 1 (combinatorial) = 1 (numeric SVD), M_5(C)" in line for line in lines)
    assert any("(n=4, k=2" in line and "not a full matrix algebra" in line for line in lines)
