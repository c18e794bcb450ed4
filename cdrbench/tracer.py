"""Run one cdrevents CLI command in-process with its layer calls timed.

Usage: python3 cdrbench/tracer.py LAUNCH_NS SPANS_JSON -- <cli arguments>

LAUNCH_NS is the CLOCK_MONOTONIC time, in nanoseconds, at which the caller
started this process, so the first span covers interpreter start plus
``import cdrevents.cli``.  The tracer then replaces the public names that
``cdrevents.cli`` calls (module functions, and the two methods it reaches
through a class) with wrappers that record a span per call, runs
``cdrevents.cli.main`` on the given arguments, and writes the spans as JSON
when the command returns.  The program's files are not modified.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans kept in memory: name, start and end (ns), parent span index,
    and counts taken from the call's arguments and result."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def record(self, name: str, start: int, end: int, **counts) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {"name": name, "start": start, "end": end, "parent": parent, "counts": counts}
        self.spans.append(span)
        return span

    def call(self, name: str, fn, args, kwargs, count=None):
        span = self.record(name, now_ns(), None)
        self._stack.append(len(self.spans) - 1)
        rss_before = peak_rss_kb()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = now_ns()
            self._stack.pop()
        span["counts"]["peak_rss_growth_kb"] = peak_rss_kb() - rss_before
        if count is not None:
            span["counts"].update(count(result, args))
        return result

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.  On a class, a
        classmethod stays callable through the class and a plain function
        stays an instance method."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, count)

        if isinstance(owner, type) and hasattr(original, "__self__"):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)


def install(tracer: Tracer, kept: dict):
    """Wrap every layer call ``cdrevents.cli`` makes; returns ``cli.main``.

    ``kept`` receives the contact graph and the attender set, so that the
    share of built edges the inference used is counted after the command,
    outside its spans.
    """
    from cdrevents import activity, cli, inference, social, synth

    def graph_counts(graph, args):
        kept["graph"] = graph
        return {"nodes": graph.n_nodes, "edges": graph.n_edges}

    def table_counts(table, args):
        kept["attenders"] = args[1]
        return {"rows": len(table.rows)}

    wrap = tracer.wrap
    wrap(synth, "generate", "synth.generate", lambda r, a: {"records": len(r.records)})
    wrap(cli, "write_cdr_file", "ingest.write")
    wrap(cli, "parse_cdr_file", "ingest.parse",
         lambda r, a: {"accepted": r[1].accepted, "rejected": r[1].rejected})
    wrap(cli, "load_client_set", "ingest.roster")
    wrap(cli.DatasetCalendar, "from_records", "model.calendar")
    wrap(cli, "build_contact_graph", "model.graph", graph_counts)
    wrap(activity, "aggregate", "activity.aggregate")
    wrap(activity, "event_index", "activity.index", lambda s, a: {"slots": len(s.values)})
    wrap(activity, "detect_events", "activity.detect", lambda e, a: {"events": len(e)})
    wrap(activity.EventIndexSeries, "silent_antennas", "activity.silent_scan")
    wrap(social, "attenders", "social.attenders", lambda u, a: {"attenders": len(u)})
    wrap(social, "induce_subgraph", "social.induce",
         lambda s, a: {"subgraph_edges": len(s.edges)})
    wrap(social, "component_size_histogram", "social.components")
    wrap(inference, "attendance_probability", "inference.exact", table_counts)
    wrap(inference, "cumulative_attendance_probability", "inference.cumulative")
    wrap(inference, "linear_fit", "inference.fit")
    wrap(cli, "write_lines", "cli.write")
    return cli.main


def edges_used(graph, attenders) -> dict:
    """Built contact edges that touch an attender, and all built edges."""
    members = frozenset(attenders)
    incident = sum(len(graph.neighbors(u)) for u in members)
    inside = sum(len(graph.neighbors(u) & members) for u in members) // 2
    return {"edges_used": incident - inside, "edges_built": graph.n_edges}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        raise SystemExit("usage: tracer.py LAUNCH_NS SPANS_JSON -- <cli arguments>")
    launch_ns, spans_path, _, *cli_args = argv
    sys.path.insert(0, str(ROOT / "src"))
    import cdrevents.cli  # noqa: F401  (this import is what cli.startup times)

    tracer = Tracer()
    tracer.record("cli.startup", int(launch_ns), now_ns())
    kept: dict = {}
    cli_main = install(tracer, kept)
    status = tracer.call("cli.main", cli_main, (cli_args,), {})
    if "graph" in kept and "attenders" in kept:
        stamp = now_ns()
        tracer.record("inference.edges", stamp, stamp, **edges_used(kept["graph"], kept["attenders"]))
    Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
