"""Independent oracle for ladder reports, using sympy.

It reads the report the way a user would, not through anticanon's APIs:

* ``divisor.section`` must equal ``det S`` up to a nonzero constant, where
  ``S`` is the component matrix written in the scenario text;
* the ``basis.sigma`` strings must satisfy ``sigma . S = I``.

sympy is used here only, outside the timed loop; anticanon never imports it.
"""

from __future__ import annotations

import re

import sympy

_FIELD = re.compile(r"^field\s+\w+\s*=\s*(.*)$")
_TERM = re.compile(r"\(([^()]*)\)\s*d(\d+)")


def _symbols(n: int) -> dict:
    names = {f"z{k}": sympy.Symbol(f"z{k}") for k in range(1, n + 1)}
    names["i"] = sympy.I
    return names


def _parse(text: str, names: dict):
    return sympy.sympify(text.replace("^", "**"), locals=names)


def component_matrix(scenario_text: str) -> sympy.Matrix:
    """Rows are fields, columns the components of ``d1..dn``, as generated
    by ``workloads.scenario_text`` (each coefficient in one pair of
    parentheses)."""
    n = int(re.search(r"^ambient C(\d+)$", scenario_text, re.M).group(1))
    names = _symbols(n)
    rows = []
    for line in scenario_text.splitlines():
        match = _FIELD.match(line.strip())
        if not match:
            continue
        row = [sympy.Integer(0)] * n
        for coeff, k in _TERM.findall(match.group(1)):
            row[int(k) - 1] += _parse(coeff, names)
        rows.append(row)
    return sympy.Matrix(rows)


def check_ladder_report(scenario_text: str, section: str,
                        sigma: list[list[str]]) -> list[str]:
    """Problems found; an empty list means the report agrees with sympy."""
    S = component_matrix(scenario_text)
    n = S.shape[0]
    names = _symbols(n)
    problems = []
    ratio = sympy.cancel(_parse(section, names) / S.det())
    if ratio.free_symbols or ratio == 0:
        problems.append("divisor.section is not a constant multiple of det S")
    product = sympy.Matrix([[_parse(e, names) for e in row] for row in sigma]) * S
    for i in range(n):
        for j in range(n):
            if sympy.cancel(product[i, j] - (1 if i == j else 0)) != 0:
                problems.append(f"(sigma . S)[{i}][{j}] is not {int(i == j)}")
    return problems
