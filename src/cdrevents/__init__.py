"""Event detection and social analysis over call detail records.

Pipeline: parse or generate a located-call corpus, aggregate per-antenna
hourly counts, normalize them against their weekly seasonal baseline, flag
hours in each antenna's top percentile, then study the flagged windows
through the contact graph: who attended, who attended with contacts, and
how attendance probability grows with the number of attending contacts.

The exported names are imported from their modules on first use, so that
importing one module of the package does not load the others.
"""

import importlib

_EXPORTS = {
    "activity": (
        "ActivityCube", "DetectedEvent", "EventIndexSeries", "SilentAntennaError",
        "aggregate", "detect_events", "event_index", "percentile_threshold",
    ),
    "inference": (
        "AttendanceRow", "AttendanceTable", "LinearFit", "attendance_probability",
        "contact_counts", "cumulative_attendance_probability", "linear_fit",
    ),
    "ingest": (
        "IngestError", "IngestReport", "load_client_set", "parse_cdr_file",
        "write_cdr_file", "write_client_roster",
    ),
    "model": (
        "CalendarRangeError", "CallRecord", "CallTable", "ContactGraph", "DatasetCalendar",
        "Direction", "HourlyCounts", "build_contact_graph",
    ),
    "social": (
        "EventWindow", "InducedSubgraph", "attenders", "component_size_histogram",
        "induce_subgraph",
    ),
    "synth": (
        "ConfigError", "PlantedEvent", "SynthConfig", "SynthResult", "antenna_id",
        "flat_profile", "generate", "user_id",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
