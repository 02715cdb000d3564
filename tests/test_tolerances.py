"""Every numeric threshold of the package lives in ``tolerances.py``: no
other module writes a number with a negative exponent."""

import tokenize
from pathlib import Path

import cuspdeform

PACKAGE = Path(cuspdeform.__file__).parent


def test_tolerance_literals_only_in_tolerances_module():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        with open(path, encoding="utf-8") as fp:
            for tok in tokenize.generate_tokens(fp.readline):
                if tok.type == tokenize.NUMBER and "e-" in tok.string.lower():
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found == []
