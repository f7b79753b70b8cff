"""In-memory spans recorded around the benchmark's calls into ctsat layers.

A span has a name ("<layer>.<call>"), a start, an end, the span that was
open when it started (its parent), the operation it belongs to, and a dict
of counts recorded at the same boundary.  Spans stay in memory until the
run ends; nothing is written while timing.  A disabled tracer records
nothing, so untraced operations pay only for an empty context manager.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op_id = None

    @contextmanager
    def span(self, name: str, **counts):
        """Time the enclosed block; yields a dict for counts to add."""
        if not self.enabled:
            yield {}
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "op": self.op_id,
            "counts": dict(counts),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
            fh.write("\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], ()))
        for s in spans
    }


def layer_table(spans) -> dict[str, dict]:
    """Per layer (the span name's prefix): calls, total and self seconds."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"].split(".", 1)[0],
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own[s["id"]]
    return table


def layer_markdown(spans) -> str:
    lines = ["| layer | calls | total s | self s |", "|---|---|---|---|"]
    for layer, row in sorted(layer_table(spans).items()):
        lines.append(f"| {layer} | {row['calls']} | {row['total_s']:.4f} | {row['self_s']:.4f} |")
    return "\n".join(lines) + "\n"
