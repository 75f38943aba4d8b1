"""The metric and span catalogue in docs/OBSERVABILITY.md matches src/.

Every name ``src/`` passes literally to ``count``, ``gauge``,
``observe``, ``span`` or ``timed_span`` of the obs runtime must be
documented, and every documented name must still be produced somewhere
in ``src/``. An f-string name reads as a pattern with ``<id>`` for each
replacement field: ``f"shard.{shard_id}.replicas_live"`` is
``shard.<id>.replicas_live``, the form the doc uses; a pattern also
covers the concrete names it can produce (``<id>_batch`` covers
``landmarks.build_batch``).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "OBSERVABILITY.md"

#: Module aliases the obs runtime is bound to in src/.
RUNTIME_ALIASES = {"_obs", "rt"}
EMITTERS = {"count", "gauge", "observe", "span", "timed_span"}
_NAME_RE = re.compile(r"[a-z<][a-z0-9_<>]*(\.[a-z0-9_<>]+)+")


def _pattern(node):
    """The name a string or f-string node spells, ``None`` otherwise."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant)
                       else "<id>" for part in node.values)
    return None


def _scan_src():
    """``(emitted names, names src/ can produce)``.

    The second set adds every string or f-string in ``src/`` that is
    shaped like a metric name — names built in a variable before they
    reach the runtime (``stage = f"workload.mmap.{backend}"``). A
    pattern without a literal letter (``f"{a}.{b}"``) covers anything
    and is left out.
    """
    emitted, produced = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = _pattern(node)
            if name is not None and _NAME_RE.fullmatch(name):
                produced.add(name)
            if (isinstance(node, ast.Call) and node.args
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in EMITTERS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in RUNTIME_ALIASES):
                name = _pattern(node.args[0])
                if name is not None:
                    emitted.add(name)
    produced = {name for name in produced | emitted
                if re.search("[a-z]", name.replace("<id>", ""))}
    return emitted, produced


def _section(text, heading):
    start = text.index(heading)
    end = text.find("\n## ", start + len(heading))
    return text[start:end if end >= 0 else len(text)]


def _documented():
    """First-column names of the span table and the metric table."""
    text = DOC.read_text(encoding="utf-8")
    names = set()
    for heading in ("## Span catalogue", "## Metric catalogue"):
        for line in _section(text, heading).splitlines():
            if not line.startswith("| `"):
                continue
            first_cell = line.split("|")[1]
            names.update(re.findall(r"`([^`]+)`", first_cell))
    return names


def _covers(pattern, name):
    """Whether *pattern* (which may hold ``<id>``) can produce *name*."""
    if pattern == name:
        return True
    if "<id>" not in pattern:
        return False
    regex = ".+".join(re.escape(part) for part in pattern.split("<id>"))
    return re.fullmatch(regex, name) is not None


def test_doc_names_are_well_formed():
    documented = _documented()
    assert documented, "no catalogue rows found in docs/OBSERVABILITY.md"
    bad = sorted(name for name in documented if not _NAME_RE.fullmatch(name))
    assert not bad, f"catalogue rows that are not metric names: {bad}"


def test_every_emitted_name_is_documented():
    emitted, _ = _scan_src()
    documented = _documented()
    missing = sorted(name for name in emitted
                     if not any(_covers(name, doc) for doc in documented))
    assert not missing, (
        f"emitted in src/ but missing from docs/OBSERVABILITY.md: "
        f"{missing}")


def test_every_documented_name_is_produced():
    _, produced = _scan_src()
    stale = sorted(doc for doc in _documented()
                   if not any(_covers(name, doc) for name in produced))
    assert not stale, (
        f"documented in docs/OBSERVABILITY.md but produced nowhere in "
        f"src/: {stale}")
