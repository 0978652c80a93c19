"""The README's code examples run as written."""

from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block after ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_quick_tour_runs():
    block = _python_block("## Library quick tour")
    namespace = {}
    exec(compile(block, f"{README}: quick tour", "exec"), namespace)
    # the block's own comments: the basis block reaches the state's S
    report = namespace["basis_report"](namespace["rho"])
    assert report["achieved_S"] == pytest.approx(namespace["s"], abs=1e-12)
