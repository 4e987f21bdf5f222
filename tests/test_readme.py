"""The README's Python example runs and gives the values it states."""

import re
from fractions import Fraction as F
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_gives_the_values_in_its_comments():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    result = namespace["result"]
    assert result.subset == (2, 3)
    assert result.squared_length == F(1, 2)
    assert result.coordinates == (F(-1, 2), F(-1, 2), F(0))
    # Each `result.<field>  # <value>[: note]` line states that value.
    stated = re.findall(r"^(result\.\w+) +# (.*?)(?::.*)?$", block, re.MULTILINE)
    assert [expr for expr, _ in stated] == [
        "result.subset", "result.squared_length", "result.coordinates"]
    for expr, value in stated:
        assert eval(expr, namespace) == eval(value, {"Fraction": F}), expr
