"""``src/artifact`` holds only what the product calls.

The test drives every product entry point under ``sys.setprofile``,
recording the code objects of call events only, and asserts that each
non-dunder function or method defined in ``src/artifact`` was entered.
Dunder methods are a number type's protocol and are exempt.  Code that
only the tests reach belongs in ``tests/oracles.py`` or in its test.

``_drive_product`` is the one list of entry points.  A new entry point
of ``src/``, such as another subcommand, joins it there.
"""

import ast
import contextlib
import io
import os
import runpy
import sys
from pathlib import Path

import artifact
from artifact import cli
from artifact.exactalg import FieldSpec
from artifact.unfoldings import DoubleHopfParams, theorem_conditions

from test_golden import corpus

SRC = Path(artifact.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parents[1] / "demos"

# The sheared fold-Hopf request of the golden corpus, whose curve has a
# nonconstant denominator.
_INLINE_INI = """\
[field]
d = 2
[system]
P = xi^4*eta^2 + 8*xi^3*eta^2 + 24*xi^2*eta^2 + 32*xi*eta^2 + 16*eta^2
    - 2*xi^3*eta - 12*xi^2*eta - 24*xi*eta - 16*eta + xi^6 + 8*xi^5
    + 23*xi^4 + 24*xi^3 - 7*xi^2 - 28*xi - 12
Q = -xi^2*eta^2 - 4*xi*eta^2 - 4*eta^2 + rt*xi^5*eta + (1 + 8*rt)*xi^4*eta
    + (8 + 24*rt)*xi^3*eta + (24 + 32*rt)*xi^2*eta + (34 + 16*rt)*xi*eta
    + 20*eta + (-1 - rt)*xi^4 + (-5 - 6*rt)*xi^3 + (-9 - 12*rt)*xi^2
    + (-8 - 8*rt)*xi - 5
phi = 1/(xi + 2)
"""

_SWEEP_INI = """\
[field]
d = 2
[system]
family = fold-hopf
mu = -1
nu = 1
[sweep]
alpha = rt, 3
s = 1, -1
"""


def _theorem(spec) -> str:
    if spec.family == cli.FAMILY_FOLD_HOPF:
        return "1.3"
    return "1.4" if spec.chart == 1 else "1.5"


def _drive_product(tmp_path: Path) -> None:
    """Run every entry point of the product once."""
    # cli.run_check and ReportDocument.to_json: the golden corpus, as
    # perfbench/workloads.py and perfbench/worker.py call them.
    for spec in corpus().values():
        report = cli.run_check(spec)
        report.to_json()
        # perfbench/checks.py: the Omega identity and the clause oracle.
        cert = report.certificate
        if cert.omega is not None:
            cert.omega.reconstruct()
        if spec.family is not None:
            theorem_conditions(spec.params, _theorem(spec))
    # perfbench/checks.py on perfbench's chart-2 double-Hopf group.
    F = FieldSpec(2)
    theorem_conditions(DoubleHopfParams(F, 1, F.surd(), 0, 1), "1.5")
    # The demos, as `python3 demos/<name>.py` runs them.
    for demo in sorted(DEMOS.glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    # The `nonint` console script and `python -m artifact`.
    inline = tmp_path / "inline.ini"
    inline.write_text(_INLINE_INI)
    grid = tmp_path / "sweep.ini"
    grid.write_text(_SWEEP_INI)
    commands = (
        (0, ["check", str(inline), "--json", "-"]),
        (0, ["fold-hopf", "--mu", "-1", "--nu", "1", "--alpha", "rt",
             "--d", "2", "--json", str(tmp_path / "fold-hopf.json")]),
        (0, ["double-hopf", "--mu", "1", "--nu", "rt", "--alpha", "1/2",
             "--beta", "1", "--chart", "2", "--d", "2"]),
        (0, ["sweep", str(grid)]),
        (0, ["sweep", str(grid), "--json", "-"]),
        (4, ["fold-hopf", "--mu", "1"]),
        (4, ["fold-hopf", "--mu", "1+", "--nu", "1", "--alpha", "1"]),
        (4, ["fold-hopf", "--mu", "1/xi", "--nu", "1", "--alpha", "1"]),
    )
    for code, argv in commands:
        assert cli.main(argv) == code, argv


def _defined_functions():
    """(path, first line) -> qualified name of every non-dunder def in
    src/artifact; a code object's first line is its first decorator's."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                name = getattr(child, "name", None)
                if isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{name}."))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    if not (name.startswith("__") and name.endswith("__")):
                        module = path.relative_to(SRC).with_suffix("")
                        out[(str(path), line)] = f"{module}:{prefix}{name}"
                    stack.append((child, f"{prefix}{name}."))
                else:
                    stack.append((child, prefix))
    return out


def _clear_caches() -> None:
    """Empty every functools cache of src/artifact: a cached function is
    entered only on a miss, and earlier tests may have filled it."""
    for name, module in list(sys.modules.items()):
        if name == "artifact" or name.startswith("artifact."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_every_src_function_is_product_code(tmp_path):
    _clear_caches()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            _drive_product(tmp_path)
    finally:
        sys.setprofile(None)
    seen = {
        (os.path.realpath(code.co_filename), code.co_firstlineno)
        for code in entered
    }
    unused = sorted(
        name for key, name in _defined_functions().items() if key not in seen
    )
    assert not unused, "only tests reach: " + ", ".join(unused)
