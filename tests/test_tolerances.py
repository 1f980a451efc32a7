"""Every numeric threshold in src is defined in openmap/tolerances.py."""

import ast
from pathlib import Path

import openmap
from openmap.tolerances import CERT_TOL, RESIDUAL_TOL

SRC = Path(openmap.__file__).resolve().parent


def small_constants(path: Path) -> list[tuple[int, float]]:
    """(line, value) of every numeric literal with 0 < |value| < 1e-6."""
    return [
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, (float, complex))
        and 0 < abs(node.value) < 1e-6
    ]


def test_thresholds_only_in_tolerances_module():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if path.name != "tolerances.py" and (hits := small_constants(path))
    }
    assert found == {}


def test_certificate_margin_covers_residual():
    # a certificate must never coexist with a compatible=True judgement
    assert CERT_TOL >= RESIDUAL_TOL
