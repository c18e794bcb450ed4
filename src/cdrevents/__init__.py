"""Event detection and social analysis over call detail records.

Pipeline: parse or generate a located-call corpus, aggregate per-antenna
hourly counts, normalize them against their weekly seasonal baseline, flag
hours in each antenna's top percentile, then study the flagged windows
through the contact graph: who attended, who attended with contacts, and
how attendance probability grows with the number of attending contacts.
"""

from .activity import (
    ActivityCube,
    DetectedEvent,
    EventIndexSeries,
    SilentAntennaError,
    aggregate,
    detect_events,
    event_index,
    percentile_threshold,
)
from .inference import (
    AttendanceRow,
    AttendanceTable,
    LinearFit,
    attendance_probability,
    contact_counts,
    cumulative_attendance_probability,
    linear_fit,
)
from .ingest import (
    IngestError,
    IngestReport,
    load_client_set,
    parse_cdr_file,
    write_cdr_file,
    write_client_roster,
)
from .model import (
    CalendarRangeError,
    CallRecord,
    CallTable,
    ContactGraph,
    DatasetCalendar,
    Direction,
    TvgEdge,
    build_contact_graph,
    to_tvg_edge,
    tvg_slice,
)
from .social import (
    EventWindow,
    InducedSubgraph,
    attenders,
    component_size_histogram,
    induce_subgraph,
)
from .synth import (
    ConfigError,
    PlantedEvent,
    SynthConfig,
    SynthResult,
    antenna_id,
    flat_profile,
    generate,
    user_id,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityCube",
    "AttendanceRow",
    "AttendanceTable",
    "CalendarRangeError",
    "CallRecord",
    "CallTable",
    "ConfigError",
    "ContactGraph",
    "DatasetCalendar",
    "DetectedEvent",
    "Direction",
    "EventIndexSeries",
    "EventWindow",
    "IngestError",
    "IngestReport",
    "InducedSubgraph",
    "LinearFit",
    "PlantedEvent",
    "SilentAntennaError",
    "SynthConfig",
    "SynthResult",
    "TvgEdge",
    "aggregate",
    "antenna_id",
    "attendance_probability",
    "attenders",
    "build_contact_graph",
    "component_size_histogram",
    "contact_counts",
    "cumulative_attendance_probability",
    "detect_events",
    "event_index",
    "flat_profile",
    "generate",
    "induce_subgraph",
    "linear_fit",
    "load_client_set",
    "parse_cdr_file",
    "percentile_threshold",
    "to_tvg_edge",
    "tvg_slice",
    "user_id",
    "write_cdr_file",
    "write_client_roster",
]
