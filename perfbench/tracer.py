"""Layer spans recorded from outside the program.

The tracer replaces each traced function at the module attribute its callers
look it up through (``cli`` calls ``echo.synthesize_raw``, ``echo`` calls its
own imported ``scene_coefficients``, and so on) with a wrapper that records a
span: name, start, end, and the span that caused it. The program's files are
not edited, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path

#: (module, attribute, span name). A function reached through two modules
#: gets one span name, so its time is counted once per call whoever calls it.
TARGETS = (
    ("ofdmsar.cli", "run", "cli.run"),
    ("ofdmsar.scenes", "make_scene", "scenes.make_scene"),
    ("ofdmsar.echo", "synthesize_raw", "echo.synthesize_raw"),
    ("ofdmsar.echo", "scene_coefficients", "geometry.scene_coefficients"),
    ("ofdmsar.echo", "draw_symbols", "waveform.draw_symbols"),
    ("ofdmsar.echo", "pulse_rng", "echo.pulse_rng"),
    ("ofdmsar.echo", "synthesize_pulse", "echo.synthesize_pulse"),
    ("ofdmsar.rangeproc", "range_profile_cube", "rangeproc.range_profile_cube"),
    ("ofdmsar.rangeproc", "ls_estimate", "rangeproc.ls_estimate"),
    ("ofdmsar.metrics", "ls_estimate", "rangeproc.ls_estimate"),
    ("ofdmsar.azimuth", "rcmc_bulk", "azimuth.rcmc_bulk"),
    ("ofdmsar.azimuth", "azimuth_compress", "azimuth.azimuth_compress"),
    ("ofdmsar.cli", "write_pgm", "output.write_pgm"),
    ("ofdmsar.cli", "write_db_csv", "output.write_db_csv"),
    ("ofdmsar.cli", "write_table_csv", "output.write_table_csv"),
    ("ofdmsar.metrics", "mse_vs_snr", "metrics.mse_vs_snr"),
    ("ofdmsar.metrics", "water_filling", "allocation.water_filling"),
    ("ofdmsar.allocation", "water_filling", "allocation.water_filling"),
    ("ofdmsar.allocation", "emse_rate_constrained", "allocation.emse_rate_constrained"),
    ("ofdmsar.allocation", "tradeoff_sweep", "allocation.tradeoff_sweep"),
)


class Tracer:
    """Spans of the operations kept, and per-name totals over them."""

    def __init__(self):
        self.total = {}  # name -> scaled seconds inside the span
        self.self_time = {}  # name -> scaled seconds not covered by child spans
        self.calls = {}
        self.bytes_written = 0
        self.ops = 0
        self._kept = []  # (op, id, parent, name, start, end)
        self._spans = []
        self._stack = []
        self._op_bytes = 0
        self._next_id = 0
        self._originals = []

    def _wrap(self, name: str, fn, writes_file: bool):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self._spans.append((span_id, parent, name, start, end, end - start - frame[1]))
                if writes_file:
                    self._op_bytes += os.path.getsize(args[0])

        return traced

    def install(self) -> None:
        wrapped = {}
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if original not in wrapped:
                wrapped[original] = self._wrap(name, original, name.startswith("output."))
            self._originals.append((module, attr, original))
            setattr(module, attr, wrapped[original])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def begin_op(self) -> None:
        self._spans.clear()
        self._op_bytes = 0

    def end_op(self, keep: bool, scale: float = 1.0) -> None:
        """Fold the operation's spans into the totals, times ``scale``, or drop them."""
        if keep:
            for span_id, parent, name, start, end, self_s in self._spans:
                self.total[name] = self.total.get(name, 0.0) + (end - start) * scale
                self.self_time[name] = self.self_time.get(name, 0.0) + self_s * scale
                self.calls[name] = self.calls.get(name, 0) + 1
                self._kept.append((self.ops, span_id, parent, name, start, end))
            self.bytes_written += self._op_bytes
            self.ops += 1
        self._spans.clear()

    def write(self, path: Path) -> None:
        """One JSON object per span; spans of one operation share ``op``."""
        with open(path, "w") as fh:
            for op, span_id, parent, name, start, end in self._kept:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
