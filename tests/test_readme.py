"""The README's library quick start runs, and its comments state what it returns."""

import pathlib
import re

import shirshov as sh


def test_library_quick_start():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    ns: dict = {}
    exec(compile(block, "README.md", "exec"), ns)

    dec = ns["dec"]
    assert dec.intervals == (sh.Interval(start=2, end=4),)
    assert dec.coverage == 3
    assert sh.verify_decomposition(sh.GradeSequence(ns["group"], [1, 1, 1, 0]), dec).ok is True
    assert ns["fact"].segments == (sh.Segment(tag="A", start=1, end=3),)
    assert sh.power_count(ns["fact"], 2) == 2
    assert sh.height_bound(2, 2) == 5
    report = ns["report"]
    assert report.verdict == "witnessed-spanning"
    assert (report.rank_products, report.rank_joint, report.expansion_cap) == (148, 148, 12)
    graded = ns["graded"]
    assert (graded.verdict, graded.height) == ("witnessed-spanning", 5)
