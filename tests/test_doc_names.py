"""Every code name the documents cite must exist.

Three kinds of reference are checked, one test per document:

* dotted names under the package (``repro.core.topk.scan_top_pairs``):
  the longest prefix that imports as a module is imported, and the rest
  is looked up as attributes;
* backticked ``Class.member`` (inline or in a fenced block) whose
  ``Class`` is exported by some ``repro`` module's ``__all__``: the member
  must be an attribute of that class;
* inline backticked bare CamelCase names, alone or followed by a call or
  one ``.member`` (``GSimIndex``, ``SlowQueryLog(...)``,
  ``ExecutionContext.operation``): the name must be defined by some
  ``repro`` module, be a Python builtin, or be a test class.

A failure lists every name that does not resolve, so a deletion that
leaves a document citing the deleted code fails here.
"""

from __future__ import annotations

import builtins
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
_BARE = re.compile(r"([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)(?:\(.*\)|\.[A-Za-z_]\w*)?")
_TEST_CLASS = re.compile(r"^class ([A-Za-z_]\w*)", re.MULTILINE)

MODULES = [
    importlib.import_module(name)
    for name in ["repro"]
    + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
]


def _exported_classes() -> dict[str, type]:
    """Every class some ``repro`` module lists in its ``__all__``."""
    classes: dict[str, type] = {}
    for module in MODULES:
        for export in getattr(module, "__all__", ()):
            value = getattr(module, export, None)
            if inspect.isclass(value):
                classes[export] = value
    return classes


CLASSES = _exported_classes()
KNOWN_NAMES = (
    {name for module in MODULES for name in vars(module)}
    | set(dir(builtins))
    | {
        name
        for path in (ROOT / "tests").glob("*.py")
        for name in _TEST_CLASS.findall(path.read_text(encoding="utf-8"))
    }
)


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


def references(
    text: str,
) -> tuple[set[str], set[tuple[str, str]], set[str]]:
    """The dotted ``repro`` names, the exported ``Class.member``
    references and the bare CamelCase names in a document."""
    dotted = set(_DOTTED.findall(text))
    inline = _INLINE.findall(_FENCE.sub("", text))
    code = _FENCE.findall(text) + inline
    members = {
        (cls, member)
        for span in code
        for cls, member in _MEMBER.findall(span)
        if cls in CLASSES
    }
    bare = {
        match[1]
        for match in map(_BARE.fullmatch, (span.strip() for span in inline))
        if match
    }
    return dotted, members, bare


def unresolved(text: str) -> list[str]:
    dotted, members, bare = references(text)
    missing = [name for name in sorted(dotted) if not _resolves_dotted(name)]
    missing += [
        f"{cls}.{member}"
        for cls, member in sorted(members)
        if not hasattr(CLASSES[cls], member)
    ]
    missing += [name for name in sorted(bare) if name not in KNOWN_NAMES]
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
        "`repro.core.batch.BatchQueryEngine`, `GSimIndex.top_pairs`,\n"
        "`ValueError` and `TestCLI` exist;\n"
        "`repro.core.nowhere`, `repro.core.batch.Nobody`, `NoSuchClass(k=3)`\n"
        "and\n```python\nindex = GSimIndex.nothing(1)\n```\ndo not.\n"
    )
    assert unresolved(text) == [
        "repro.core.batch.Nobody",
        "repro.core.nowhere",
        "GSimIndex.nothing",
        "NoSuchClass",
    ]
