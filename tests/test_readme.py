"""The README's library quick start runs to a certified end."""

import contextlib
import io
import re
from pathlib import Path

from ntcg.solver import TERM_CERTIFIED_AT_CURRENT, TERM_FIRST_ORDER_AND_CERTIFIED

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_ends_with_a_certificate():
    # The quick start runs to termination, so this covers the tail of a run.
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(quick_start_code(), str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.termination in (TERM_CERTIFIED_AT_CURRENT,
                                  TERM_FIRST_ORDER_AND_CERTIFIED)
    assert report.final_true_grad_norm < report.config_resolved.eps_g
