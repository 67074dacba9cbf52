"""The README's library quick start runs to a certified end, and its API
list is the package root's."""

import contextlib
import io
import re
from pathlib import Path

import ntcg
from ntcg.solver import TERM_CERTIFIED_AT_CURRENT, TERM_FIRST_ORDER_AND_CERTIFIED

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title):
    """The README text under `## title`, up to the next section."""
    text = README.read_text(encoding="utf-8").split("## %s\n" % title, 1)[1]
    return text.split("\n## ", 1)[0]


def quick_start_code():
    return re.search(r"```python\n(.*?)```", section("Library quick start"), re.S).group(1)


def test_quick_start_ends_with_a_certificate():
    # The quick start runs to termination, so this covers the tail of a run.
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(quick_start_code(), str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.termination in (TERM_CERTIFIED_AT_CURRENT,
                                  TERM_FIRST_ORDER_AND_CERTIFIED)
    assert report.final_true_grad_norm < report.config_resolved.eps_g


def test_api_list_is_the_package_root():
    # The bulleted names of the Public API section, wrapped lines included.
    bullets = re.findall(r"^- .*(?:\n  .*)*", section("Public API"), re.M)
    names = re.findall(r"`(\w+)`", "\n".join(bullets))
    assert sorted(names) == sorted(ntcg.__all__)
