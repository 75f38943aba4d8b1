"""Render an observability snapshot as JSON or a text report.

The JSON form (``BENCH_ci.json``) is the artifact the CI bench-smoke
job uploads and the regression gate consumes; see
``docs/OBSERVABILITY.md`` for the schema and how to read it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from .clock import format_duration

#: Schema version of the bench report JSON.
REPORT_VERSION = 1


def build_report(snapshot: Dict[str, Any],
                 workload: Optional[Dict[str, Any]] = None,
                 latency: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Wrap a runtime snapshot into the versioned bench-report form.

    ``latency`` maps stage names to per-query latency summaries
    (``{count, p50, p99, mean, qps}`` — see
    :func:`repro.obs.workload._latency_summary`); the CI gate holds
    p50/p99 against the baseline.
    """
    return {
        "version": REPORT_VERSION,
        "workload": dict(workload) if workload is not None else {},
        "stages": snapshot.get("stages", {}),
        "counters": snapshot.get("counters", {}),
        "gauges": snapshot.get("gauges", {}),
        "histograms": snapshot.get("histograms", {}),
        "latency": dict(latency) if latency is not None else {},
    }


def write_json(report: Dict[str, Any], path: Union[str, Path]) -> int:
    """Write *report* to *path*; returns the number of bytes written."""
    blob = json.dumps(report, indent=2, sort_keys=True) + "\n"
    target = Path(path)
    target.write_text(blob, encoding="utf-8")
    return len(blob)


def read_json(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a report written by :func:`write_json`.

    Raises:
        ValueError: if the file is not a bench report (no ``version``).
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "version" not in data:
        raise ValueError(f"{path} is not a bench report (missing 'version')")
    return data


def render_text(report: Dict[str, Any]) -> str:
    """Human-readable stage/counter report (the ``python -m repro.obs``
    default output)."""
    lines = []
    workload = report.get("workload") or {}
    if workload:
        knobs = " ".join(f"{key}={workload[key]}"
                         for key in sorted(workload))
        lines.append(f"workload: {knobs}")
        lines.append("")

    stages = report.get("stages") or {}
    if stages:
        name_width = max(len(name) for name in stages)
        lines.append(f"{'stage':<{name_width}}  {'calls':>7} "
                     f"{'total':>10} {'mean':>10} {'max':>10}")
        for name, entry in sorted(
                stages.items(), key=lambda kv: -kv[1]["seconds"]):
            lines.append(
                f"{name:<{name_width}}  {int(entry['calls']):>7} "
                f"{format_duration(entry['seconds']):>10} "
                f"{format_duration(entry['mean']):>10} "
                f"{format_duration(entry['max']):>10}")
    else:
        lines.append("no spans recorded (is the obs layer enabled?)")

    counters = report.get("counters") or {}
    if counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name} = {counters[name]:g}")

    gauges = report.get("gauges") or {}
    if gauges:
        lines.append("")
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name} = {gauges[name]:g}")

    latency = report.get("latency") or {}
    if latency:
        lines.append("")
        name_width = max(len(name) for name in latency)
        lines.append(f"{'latency':<{name_width}}  {'count':>7} "
                     f"{'p50':>10} {'p99':>10} {'mean':>10} {'qps':>10}")
        for name in sorted(latency):
            entry = latency[name]
            lines.append(
                f"{name:<{name_width}}  {int(entry['count']):>7} "
                f"{format_duration(entry['p50']):>10} "
                f"{format_duration(entry['p99']):>10} "
                f"{format_duration(entry['mean']):>10} "
                f"{entry['qps']:>10.0f}")

    histograms = report.get("histograms") or {}
    if histograms:
        lines.append("")
        lines.append("histograms:")
        for name in sorted(histograms):
            hist = histograms[name]
            mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
            lines.append(f"  {name}: n={hist['count']} "
                         f"mean={format_duration(max(mean, 0.0))}")
    return "\n".join(lines)


def render_markdown(report: Dict[str, Any],
                    chaos: Optional[Sequence[Dict[str, Any]]] = None) -> str:
    """GitHub-flavoured gate summary for ``$GITHUB_STEP_SUMMARY``.

    Tables the bench stages, the per-engine query-latency p50/p99, the
    rollover gauges, and (when *chaos* verdict dicts are passed — the
    JSON the chaos-matrix cells upload) a per-cell chaos verdict row,
    so a reviewer reads the whole gate without downloading artifacts.
    """
    lines: List[str] = ["## Bench gate summary", ""]
    workload = report.get("workload") or {}
    if workload:
        knobs = " · ".join(f"{key}={workload[key]}"
                           for key in sorted(workload))
        lines += [f"_Workload: {knobs}_", ""]

    stages = report.get("stages") or {}
    if stages:
        lines += [
            "### Stages",
            "",
            "| stage | calls | total | mean | max |",
            "| --- | ---: | ---: | ---: | ---: |",
        ]
        for name, entry in sorted(
                stages.items(), key=lambda kv: -kv[1]["seconds"]):
            lines.append(
                f"| `{name}` | {int(entry['calls'])} "
                f"| {format_duration(entry['seconds'])} "
                f"| {format_duration(entry['mean'])} "
                f"| {format_duration(entry['max'])} |")
        lines.append("")

    latency = report.get("latency") or {}
    if latency:
        lines += [
            "### Query latency",
            "",
            "| engine | count | p50 | p99 | mean | qps |",
            "| --- | ---: | ---: | ---: | ---: | ---: |",
        ]
        for name in sorted(latency):
            entry = latency[name]
            lines.append(
                f"| `{name}` | {int(entry['count'])} "
                f"| {format_duration(entry['p50'])} "
                f"| {format_duration(entry['p99'])} "
                f"| {format_duration(entry['mean'])} "
                f"| {entry['qps']:.0f} |")
        lines.append("")

    gauges = report.get("gauges") or {}
    rollover = {name: value for name, value in sorted(gauges.items())
                if name.startswith("workload.rollover.")}
    if rollover:
        lines += ["### Rollover", ""]
        for name, value in rollover.items():
            lines.append(f"- `{name}` = {value:g}")
        lines.append("")

    counters = report.get("counters") or {}
    ingestion = {name: value for name, value in sorted(gauges.items())
                 if name.startswith("workload.ingest.")}
    ingestion.update(
        (name, value) for name, value in sorted(counters.items())
        if name.startswith("ingest."))
    if ingestion:
        lines += ["### Ingestion", ""]
        for name, value in sorted(ingestion.items()):
            lines.append(f"- `{name}` = {value:g}")
        lines.append("")

    if chaos is not None:
        lines += [
            "### Chaos verdicts",
            "",
            "| cell | det | stale | degraded | verdict |",
            "| --- | --- | ---: | ---: | --- |",
        ]
        for verdict in chaos:
            mark = "✅" if verdict.get("passed") else "❌"
            lines.append(
                f"| `{verdict.get('cell', '?')}` "
                f"| {'yes' if verdict.get('deterministic') else 'NO'} "
                f"| {verdict.get('stale_errors', '?')} "
                f"| {verdict.get('degraded_responses', '?')} "
                f"| {mark} |")
        lines.append("")
    return "\n".join(lines)
