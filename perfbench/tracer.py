"""Outside-in span tracing of latcut's layers, without editing src/.

Each public function is wrapped at the module attribute its caller looks
it up through (for example `latcut.cli.validate_gram` for the CLI's call
and `latcut.generators.validate_gram` for the generator's), and the
originals are restored on exit.  A span is named after the module that
defines the function, so both lookups above feed `lattice.validate_gram`.
An attribute a later version of latcut no longer has is skipped, and its
span then reports zero calls.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# (module under latcut, attribute, span name)
TARGETS = (
    ("cli", "run_cli", "cli.run_cli"),
    ("cli", "parse_input", "cli.parse_input"),
    ("cli", "validate_superbase", "lattice.validate_superbase"),
    ("cli", "validate_gram", "lattice.validate_gram"),
    ("cli", "selling_parameters", "lattice.selling_parameters"),
    ("cli", "short_vector", "pipeline.short_vector"),
    ("cli", "candidate_vectors", "pipeline.candidate_vectors"),
    ("pipeline", "selling_parameters", "lattice.selling_parameters"),
    ("pipeline", "graph_from_gram", "mincut.graph_from_gram"),
    ("pipeline", "stoer_wagner", "mincut.stoer_wagner"),
    ("pipeline", "karger_stein", "mincut.karger_stein"),
    ("pipeline", "brute_force_mincut", "mincut.brute_force_mincut"),
    ("generators", "generate", "generators.generate"),
    ("generators", "validate_superbase", "lattice.validate_superbase"),
    ("generators", "validate_gram", "lattice.validate_gram"),
)
SPANS = tuple(dict.fromkeys(name for _, _, name in TARGETS))


class Tracer:
    """Records spans in memory: [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None  # id stamped on every span opened from now on
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, latcut):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = getattr(latcut, module_name)
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def as_records(self) -> list[dict]:
        return [dict(name=name, start=start, end=end, parent=parent, op=op)
                for name, start, end, parent, op in self.spans]
