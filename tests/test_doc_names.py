"""Every code name the documents cite must exist.

Two kinds of reference are checked, one test per document:

* dotted names under the package (``repro.core.topk.scan_top_pairs``):
  the longest prefix that imports as a module is imported, and the rest
  is looked up as attributes;
* backticked ``Class.member`` (inline or in a fenced block) whose
  ``Class`` is exported by some ``repro`` module's ``__all__``: the member
  must be an attribute of that class.

A failure lists every name that does not resolve, so a deletion that
leaves a document citing the deleted code fails here.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    + list((ROOT / "docs").glob("*.md"))
    + [ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
)

_DOTTED = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")
_FENCE = re.compile(r"^\s*```.*?$(.*?)^\s*```", re.MULTILINE | re.DOTALL)
_INLINE = re.compile(r"`([^`\n]+)`")
_MEMBER = re.compile(r"(?<![\w.])([A-Z]\w*)\.([A-Za-z_]\w*)")


def _exported_classes() -> dict[str, type]:
    """Every class some ``repro`` module lists in its ``__all__``."""
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    classes: dict[str, type] = {}
    for name in names:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            value = getattr(module, export, None)
            if inspect.isclass(value):
                classes[export] = value
    return classes


CLASSES = _exported_classes()


def _resolves_dotted(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def references(text: str) -> tuple[set[str], set[tuple[str, str]]]:
    """The dotted ``repro`` names and the exported ``Class.member``
    references in a document."""
    dotted = set(_DOTTED.findall(text))
    code = _FENCE.findall(text) + _INLINE.findall(_FENCE.sub("", text))
    members = {
        (cls, member)
        for span in code
        for cls, member in _MEMBER.findall(span)
        if cls in CLASSES
    }
    return dotted, members


def unresolved(text: str) -> list[str]:
    dotted, members = references(text)
    missing = [name for name in sorted(dotted) if not _resolves_dotted(name)]
    missing += [
        f"{cls}.{member}"
        for cls, member in sorted(members)
        if not hasattr(CLASSES[cls], member)
    ]
    return missing


@pytest.mark.parametrize(
    "document", DOCUMENTS, ids=lambda path: str(path.relative_to(ROOT))
)
def test_document_names_resolve(document):
    missing = unresolved(document.read_text(encoding="utf-8"))
    assert not missing, (
        f"{document.relative_to(ROOT)} names code that does not exist: "
        + ", ".join(missing)
    )


def test_checker_reports_missing_names():
    text = (
        "`repro.core.batch.BatchQueryEngine` and `GSimIndex.top_pairs` exist;\n"
        "`repro.core.nowhere`, `repro.core.batch.Nobody` and\n"
        "```python\nindex = GSimIndex.nothing(1)\n```\ndo not.\n"
    )
    assert unresolved(text) == [
        "repro.core.batch.Nobody",
        "repro.core.nowhere",
        "GSimIndex.nothing",
    ]
