"""Run analysis: Chrome-trace export, latency blame, text timelines.

The names below resolve on first access (PEP 562), so importing one
submodule loads none of the others.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:
    from .blame import (
        blame_report,
        blame_report_for_result,
        blame_trace_events,
        exact_percentile,
        folded_stacks,
        write_folded,
    )
    from .chrome_trace import build_trace_events, export_chrome_trace
    from .summary import summarize_run
    from .timeline import render_gantt, render_histogram

# Submodule -> the names it re-exports.
_EXPORTS = {
    "blame": (
        "blame_report", "blame_report_for_result", "blame_trace_events",
        "exact_percentile", "folded_stacks", "write_folded",
    ),
    "chrome_trace": ("build_trace_events", "export_chrome_trace"),
    "summary": ("summarize_run",),
    "timeline": ("render_gantt", "render_histogram"),
}

_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> Any:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
