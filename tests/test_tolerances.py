"""The tolerance policy: every float threshold lives in walkdist.tolerances."""

import inspect
import re
from pathlib import Path

import walkdist
from walkdist import cli

SRC = Path(walkdist.__file__).parent


def test_float_thresholds_are_defined_only_in_tolerances():
    literal = re.compile(r"\de-\d")
    found = [
        f"{path.name}:{no}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "tolerances.py"
        for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if literal.search(line)
    ]
    assert found == []


def test_no_public_function_takes_a_tolerance():
    functions = [obj for obj in vars(walkdist).values() if inspect.isfunction(obj)]
    functions.append(cli.run_sweep)
    taking = [
        f"{fn.__name__}({name})"
        for fn in functions
        for name in inspect.signature(fn).parameters
        if name.startswith("tol") or name.endswith("_tol")
    ]
    assert taking == []


def test_every_tolerance_is_read_elsewhere():
    defined = re.findall(r"^([A-Z_]+) = ", (SRC / "tolerances.py").read_text(), re.M)
    others = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
        if path.name != "tolerances.py"
    )
    unread = [name for name in defined if not re.search(rf"\b{name}\b", others)]
    assert defined and unread == []
