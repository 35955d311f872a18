"""README's library quick tour, run as written, with each of its commented claims asserted."""

import ast
import pathlib
import re

from monocert import IntPoly

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> dict:
    """Run the quick tour's code block; the value of each top-level expression, keyed by its source."""
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace, values = {}, {}
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    return values


def test_quick_tour_claims():
    values = _quick_tour()
    v = values["analyze(4, 17)"]
    assert (v.status, v.p, v.witness_d, v.ideal_count, v.irreducible_count) == ("not_monogenic", 2, 1, 3, 2)
    v = values["analyze(6, 30**5)"]
    assert v.status == "monogenic"
    assert (v.generator_base, v.t, v.s, v.generator_poly) == (30, 5, 4, IntPoly.binomial(6, 30))
    assert values["analyze(3, 2)"].status == "inconclusive"
    assert values["split.exact"] is True
    assert values["split.index_valuation"] == 3
    assert values["phi_expand(IntPoly.binomial(4, 17), IntPoly([-1, 1])).parts"] == ((-16,), (4,), (6,), (4,), (1,))
    box = values["verify_box(CnsBasis(IntPoly([2, 2, 1])), 10)"]
    assert (box.total, box.terminated, box.collisions) == (441, 441, 0)
