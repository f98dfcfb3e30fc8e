"""Run one ``friscov`` CLI command in-process with spans around each layer.

Usage::

    python3 perfbench/traced_cli.py SUMMARY_JSON SPANS_TSV -- CLI_ARGS...

Before ``friscov.cli.main`` runs, every function in ``TARGETS`` is
replaced by a wrapper on each name that refers to it in any ``friscov``
module's namespace.  ``from .x import y`` copies the name into the
calling module, so a wrapper placed only on the defining module would
miss those calls.  Each call records a span ``[name, parent, start_ns,
end_ns]`` in memory; the spans are written to SPANS_TSV and the
per-name calls, total and self times to SUMMARY_JSON once the command
returns.  Self time is a span's duration minus that of its child spans.

The exit code is the CLI's own.  Requires ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Span names, "<defining module>.<function>".  ``cli._resolve`` and
# ``cli._from_resolved`` are the two halves of ``cli.load_config`` that
# ``cli.main`` calls directly.
TARGETS = (
    "specfun.reg_lower_incomplete_gamma",
    "surface.correlation_matrix",
    "surface.psd_sqrt",
    "analytics.gamma_moment_match",
    "analytics.gamma_cdf",
    "montecarlo.simulate_gains",
    "montecarlo.estimate_op",
    "montecarlo.estimate_cop",
    "montecarlo.estimate_success",
    "montecarlo.ks_distance",
    "cli.load_config",
    "cli._resolve",
    "cli._from_resolved",
    "cli.run_sweep",
    "cli.emit_csv",
    "cli.emit_plot",
)


class Recorder:
    """In-memory span store plus the simulation-cache counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.simulation_keys: set = set()
        self.simulation_misses = 0
        self.miss_trials = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        observe = self.count_simulation if name == "montecarlo.simulate_gains" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def count_simulation(self, mc, geom):
        """A miss is the first call with an argument key, as ``simulate_gains`` caches on it."""
        key = (mc, geom)
        if key not in self.simulation_keys:
            self.simulation_keys.add(key)
            self.simulation_misses += 1
            self.miss_trials += mc.trials

    def summary(self) -> dict:
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_name: dict[str, dict[str, float]] = {}
        for index, (name, _, start, end) in enumerate(self.spans):
            entry = per_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[index]) / 1e9
        return {
            "spans": per_name,
            "simulate_gains": {"misses": self.simulation_misses, "miss_trials": self.miss_trials},
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for index, (name, parent, start, end) in enumerate(self.spans):
                out.write(f"{index}\t{parent}\t{name}\t{start}\t{end}\n")


def install(recorder: Recorder) -> list[str]:
    """Wrap every target on all its names; return the targets not found."""
    import friscov.cli  # noqa: F401  (imports every module on the production path)

    modules = [m for n, m in sorted(sys.modules.items()) if n == "friscov" or n.startswith("friscov.")]
    missing = []
    for target in TARGETS:
        module_name, attr = target.split(".")
        original = getattr(sys.modules.get(f"friscov.{module_name}"), attr, None)
        if original is None:
            missing.append(target)
            continue
        wrapped = recorder.wrap(target, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    summary_path, spans_path, cli_args = argv[0], argv[1], argv[3:]
    recorder = Recorder()
    missing = install(recorder)
    from friscov import cli

    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    recorder.dump(spans_path)
    summary = recorder.summary()
    summary["exit_code"] = code
    summary["unwrapped"] = missing
    with open(summary_path, "w", encoding="utf-8") as out:
        json.dump(summary, out, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
