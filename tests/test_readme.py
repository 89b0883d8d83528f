"""README.md's library example, run as written."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    exec(compile(example, str(README), "exec"), {})
    *analytic, estimate = capsys.readouterr().out.splitlines()
    assert len(analytic) == 3
    p_fc_hat, interval = estimate.split(" ", 1)
    low, high = ast.literal_eval(interval)
    assert low <= float(p_fc_hat) <= high
