"""Spans around the public names each ofdmlink module calls across a boundary.

The wrappers are installed from outside: ``install`` replaces a module
attribute with a timing wrapper, so the package source stays untouched.
Names are patched where they are *looked up*: ``harness`` imported
``draw_channel`` by name, so ``harness.draw_channel`` is wrapped, not
``channel.draw_channel``.  A target that no longer exists is skipped and
reports zero calls.

Each span is ``(name id, start, end, parent index, raised, note)``; spans
stay in memory and are written once, by the caller, at the end.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time

import numpy as np

try:
    from ofdmlink.numerics import CONDITION_LIMIT
except ImportError:
    CONDITION_LIMIT = 1e12


def _cond_note(args, out):
    """(matrices checked, verdicts rejected) of one condition_number call."""
    matrices = math.prod(np.shape(args[0])[:-2])
    rejects = int(np.count_nonzero(~(np.isfinite(out) & (np.asarray(out) <= CONDITION_LIMIT))))
    return [matrices, rejects]


def _frame_note(args, out):
    """(erased bins, flagged symbols) of one equalize_frame call."""
    return [int(np.count_nonzero(out.erased)), int(out.flagged_symbols)]


def _csv_note(args, out):
    return [os.path.getsize(args[1])]


def _plots_note(args, out):
    return [sum(os.path.getsize(p) for p in out)]


# (module looked up in, attribute, span name, note)
TARGETS = [
    ("harness", "run_point", "harness.run_point", None),
    ("harness", "simulate_frame", "harness.simulate_frame", None),
    ("harness", "estimate_iq_refined", "harness.estimate_iq_refined", None),
    ("harness", "receiver_state", "harness.receiver_state", None),
    ("harness", "emit_csv", "harness.emit_csv", _csv_note),
    ("harness", "emit_plots", "harness.emit_plots", _plots_note),
    ("cli", "emit_csv", "harness.emit_csv", _csv_note),
    ("cli", "emit_plots", "harness.emit_plots", _plots_note),
    ("harness", "draw_channel", "channel.draw_channel", None),
    ("harness", "apply_channel", "channel.apply_channel", None),
    ("harness", "gen_phase_noise", "impairments.gen_phase_noise", None),
    ("harness", "apply_phase_noise", "impairments.apply_phase_noise", None),
    ("harness", "apply_iq_imbalance", "impairments.apply_iq_imbalance", None),
    ("harness", "cpe_of", "impairments.cpe_of", None),
    ("harness", "assemble_frame", "framing.assemble_frame", None),
    ("harness", "modulate_frame", "framing.modulate_frame", None),
    ("harness", "demodulate_frame", "framing.demodulate_frame", None),
    ("harness", "estimate_noise_ici_corr", "estimation.estimate_noise_ici_corr", None),
    ("harness", "estimate_preamble", "estimation.estimate_preamble", None),
    ("harness", "estimate_iq_params", "estimation.estimate_iq_params", None),
    ("harness", "refine_iq_channel", "estimation.refine_iq_channel", None),
    ("harness", "demix_channel", "estimation.demix_channel", None),
    ("harness", "interpolate_channel", "estimation.interpolate_channel", None),
    ("harness", "iterative_refine", "estimation.iterative_refine", None),
    ("harness", "equalize_frame", "equalization.equalize_frame", _frame_note),
    ("harness", "line_chart", "svgplot.line_chart", None),
    ("equalization", "equalize_symbol", "equalization.equalize_symbol", None),
    ("equalization", "condition_number", "numerics.condition_number", _cond_note),
    ("equalization", "solve_regularized", "numerics.solve_regularized", None),
    ("equalization", "qam16_demap", "framing.qam16_demap", None),
    ("numerics", "condition_number", "numerics.condition_number", _cond_note),
    ("estimation", "dft", "numerics.fft", None),
    ("estimation", "idft", "numerics.fft", None),
]


class Recorder:
    """In-memory span store with a call stack for parent links."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, note=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out, raised = None, True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                t1 = clock()
                stack.pop()
                extra = note(args, out) if note is not None and not raised else None
                spans[idx] = (nid, t0, t1, parent, raised, extra)

        return traced

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def install(recorder: Recorder) -> list[str]:
    """Wrap every target that exists; returns the ``module.attr`` names skipped."""
    skipped = []
    for mod_name, attr, name, note in TARGETS:
        try:
            mod = importlib.import_module(f"ofdmlink.{mod_name}")
        except ImportError:
            skipped.append(f"{mod_name}.{attr}")
            continue
        fn = getattr(mod, attr, None)
        if not callable(fn):
            skipped.append(f"{mod_name}.{attr}")
            continue
        setattr(mod, attr, recorder.wrap(fn, name, note))
    return skipped
