"""The exact core runs without loading numpy; the numeric probes load it.

Parsing, the ``divisor``, ``kahler`` and ``cone`` analyses never touch numpy,
so ``import anticanon`` must not pay for it.  The check runs in one fresh
interpreter, because the test process itself has numpy loaded already.
``numpy.linalg`` is the marker: the ``numpy`` name may sit in ``sys.modules``
as a module that has not run yet, but ``numpy.linalg`` appears only once
numpy's own initialisation has run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = textwrap.dedent('''
    import sys

    import anticanon
    from anticanon.report import run_report, serialize_report
    from anticanon.scenario import parse_scenario

    LATTICE = """
    ambient C4
    field e1 = d1
    field e2 = d2
    field e3 = d3
    field e4 = d4
    lattice (1, i, 0, 1/2), (0, 1, 2*i, 0), (i, 0, 1, 1), (1/3, 1, 0, -i), (1+i, 0, 0, 1)
    analyses cone
    """

    BASIS = """
    ambient C2
    field s1 = (2*z1 - i*z1 + 1) d1 + (-i*z2) d2
    field s2 = (-z2 + 2*i*z2) d1 + (i*z1 + 1 - i) d2
    analyses divisor kahler
    steps 20
    points 1
    """

    def loaded():
        return "numpy.linalg" in sys.modules

    assert not loaded(), "import anticanon loaded numpy"
    lattice = parse_scenario(LATTICE, name="lattice")
    basis = parse_scenario(BASIS, name="basis")
    assert not loaded(), "parsing loaded numpy"
    cone = run_report(lattice, seed_override=1)
    serialize_report(cone)
    assert cone["cone"]["semi_torus"] is not None
    assert not loaded(), "the cone analysis loaded numpy"
    exact = run_report(basis, seed_override=1)
    serialize_report(exact)
    assert exact["kahler"]["is_kahler"] is False
    assert not loaded(), "the divisor or kahler analysis loaded numpy"
    run_report(basis, seed_override=1, analyses=("flow",))
    assert loaded(), "the flow probe ran without numpy"
''')


def _run_fresh(program: str) -> subprocess.CompletedProcess:
    """Run ``program`` in a new interpreter that imports anticanon from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, text=True, timeout=60)


def test_exact_analyses_do_not_load_numpy():
    done = _run_fresh(PROGRAM)
    assert done.returncode == 0, done.stderr


def test_import_without_numpy_fails():
    # numpy stays a hard dependency: hiding it fails the import up front.
    program = textwrap.dedent(f'''
        import os
        import sys

        sys.path[:] = [p for p in sys.path
                       if not os.path.isdir(os.path.join(p or ".", "numpy"))]
        sys.path.insert(0, {str(SRC)!r})
        import anticanon
    ''')
    done = subprocess.run([sys.executable, "-c", program],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "ModuleNotFoundError: No module named 'numpy'" in done.stderr


def test_parsing_loads_no_analysis_layer():
    # A lattice and a basis parse with the exact kernel, the parser and the
    # lattice layer only; the first report loads the analysis layers.
    program = textwrap.dedent('''
        import sys

        import anticanon

        ANALYSIS = ("anticanon.metric", "anticanon.flows", "anticanon.divisor",
                    "anticanon.report")

        def loaded():
            return [m for m in ANALYSIS if m in sys.modules]

        assert loaded() == [], loaded()
        lattice = anticanon.parse_scenario(
            "ambient C4\\nfield e1 = d1\\nfield e2 = d2\\nfield e3 = d3\\n"
            "field e4 = d4\\nlattice (1, i, 0, 1/2), (0, 1, 2*i, 0), "
            "(1/3-i, 0, 1, 1)\\nanalyses cone\\n", name="lattice")
        basis = anticanon.parse_scenario(
            "ambient C2\\nfield s1 = (2*z1 - i*z1 + 1) d1 + (-i*z2) d2\\n"
            "field s2 = (-z2 + 2*i*z2) d1 + (i*z1 + 1 - i) d2\\n", name="basis")
        assert loaded() == [], loaded()
        assert "anticanon.fields" not in sys.modules
        assert "anticanon.cone" in sys.modules
        anticanon.run_report(lattice, seed_override=1)
        assert loaded() == list(ANALYSIS), loaded()
    ''')
    done = _run_fresh(program)
    assert done.returncode == 0, done.stderr


def test_scenarios_subcommand_loads_no_analysis_layer():
    # Listing the bundled scenarios needs the scenario reader only.
    program = textwrap.dedent('''
        import sys

        from anticanon.cli import main

        assert main(["scenarios"]) == 0
        ANALYSIS = ("anticanon.fields", "anticanon.divisor", "anticanon.metric",
                    "anticanon.flows", "anticanon.report")
        loaded = [m for m in ANALYSIS if m in sys.modules]
        assert loaded == [], loaded
    ''')
    done = _run_fresh(program)
    assert done.returncode == 0, done.stderr
    assert "p2_toric" in done.stdout.split()
