"""Run one rbkit command in this process with every layer boundary traced.

    python3 bench/tracer.py TRACE.json SPAWN_TIME -- <rbkit arguments>

Imports ``rbkit.cli`` (the moment it is ready, minus SPAWN_TIME taken by the
parent on the same monotonic clock, is the process start cost), wraps the
public functions of the six modules under every name the package binds them
to, runs ``rbkit.cli.main`` with the given arguments exactly as the ``rbkit``
entry point does, and writes the spans and counts to TRACE.json once, when
the command ends.  Standard output is the command's own, byte for byte.

A span is (name, start, end, parent span index).  The hot entry points
(``LaurentPoly`` construction, arithmetic, derivative and printing, and
``closed_flow``) run hundreds of thousands of times per command, so they are
only counted and timed in aggregate; their time is still taken out of the
self time of the span that called them.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

LAYERS = ("ratlaurent", "exterior", "halfspace", "solitons", "flows", "cli")
# called once per comparison inside sorts; a wrapper would dwarf it
UNWRAPPED = {"ratlaurent.grlex_key"}
HOT = {"flows.closed_flow"}
LAURENT_METHODS = (
    ("init", "__init__"),
    ("mul", "__mul__"),
    ("mul", "__rmul__"),
    ("add", "__add__"),
    ("add", "__radd__"),
    ("deriv", "deriv"),
    ("text", "text"),
)


class Tracer:
    """Spans, self times and counts of one command, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.self_s = {}
        self.calls = {}
        self.counts = {"ratlaurent.peak_terms": 0, "ratlaurent.peak_coeff_bits": 0, "flows.rk4_steps": 0, "flows.csv_bytes": 0}
        # frame: [index of the nearest recorded span, time spent in child spans]
        self.stack = [[None, 0.0]]

    def wrap(self, name, fn, after=None):
        """Wrap fn; ``after(args, result)`` runs outside every timed interval."""
        hot = name in HOT or name.startswith("ratlaurent.")
        stack, spans, self_s, calls = self.stack, self.spans, self.self_s, self.calls
        clock = time.perf_counter
        self_s.setdefault(name, 0.0)
        calls.setdefault(name, 0)

        def traced(*args, **kwargs):
            parent = stack[-1]
            if hot:
                frame = [parent[0], 0.0]
            else:
                frame = [len(spans), 0.0]
                record = [name, 0.0, 0.0, parent[0]]
                spans.append(record)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_s[name] += end - start - frame[1]
                calls[name] += 1
                parent[1] += end - start
                if not hot:
                    record[1], record[2] = start, end
            if after is not None:
                after(args, result)
                parent[1] += clock() - end
            return result

        return traced

    def _laurent_peaks(self, args, _result):
        terms = args[0]._terms
        counts = self.counts
        if len(terms) > counts["ratlaurent.peak_terms"]:
            counts["ratlaurent.peak_terms"] = len(terms)
        bits = counts["ratlaurent.peak_coeff_bits"]
        for coeff in terms.values():
            bits = max(bits, coeff.numerator.bit_length(), coeff.denominator.bit_length())
        counts["ratlaurent.peak_coeff_bits"] = bits

    def _rk4_steps(self, _args, states):
        self.counts["flows.rk4_steps"] += len(states) - 1

    def _csv_bytes(self, args, _result):
        self.counts["flows.csv_bytes"] += os.path.getsize(args[0])

    def install(self, package):
        """Wrap every public function of the layers wherever the package binds it."""
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        namespaces = [package, *modules.values()]
        hooks = {"flows.integrate": self._rk4_steps, "flows.write_trajectory_csv": self._csv_bytes}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in UNWRAPPED or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                traced = self.wrap(name, obj, hooks.get(name))
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is obj:
                            setattr(namespace, key, traced)
        poly = modules["ratlaurent"].LaurentPoly
        for metric, attr in LAURENT_METHODS:
            after = self._laurent_peaks if attr == "__init__" else None
            setattr(poly, attr, self.wrap(f"ratlaurent.{metric}", getattr(poly, attr), after))

    def dump(self, path, ready_s):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"ready_s": ready_s, "self_s": self.self_s, "calls": self.calls, "counts": self.counts, "spans": self.spans},
                handle,
            )


def main(argv) -> int:
    trace_path, spawn_time = argv[0], float(argv[1])
    import rbkit
    import rbkit.cli

    ready_s = time.perf_counter() - spawn_time
    tracer = Tracer()
    tracer.install(rbkit)
    try:
        return rbkit.cli.main(argv[3:])
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path, ready_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
