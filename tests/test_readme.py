"""The README's Library tour, run as written.

Each expression statement of the tour that carries a comment must give
the value the comment states; a comment of the form ``2 == f(...)``
chains, so the expression must equal both.
"""

import ast
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def library_tour():
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"```python\n(.*?)```", handle.read(), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_library_tour_gives_its_commented_values():
    source = library_tour()
    lines = source.splitlines()
    namespace, checked = {}, []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr) and comment:
            value = eval(code, namespace)
            assert eval(f"value_ == {comment}", dict(namespace, value_=value)), (code, value)
            checked.append(value)
        else:
            exec(code, namespace)
    assert checked == [("finite", 1), "in", 2, 1]
