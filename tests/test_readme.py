"""The README's "Library tour" runs as written, and every line in it whose
comment is a Python literal evaluates to that literal."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    tour = README.read_text().split("## Library tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        try:
            want = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(code, namespace) == want, line
        checked += 1
    assert checked, "no line with a literal comment was checked"
