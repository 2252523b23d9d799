"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each module of
``dirac_tunnel`` with timing wrappers, at the names the calling module
looks them up by (``cli.scan_peaks``, ``transit.converged_integrator``,
``wavepacket.transmission_amplitude``, the ``PacketIntegrator`` methods).
A wrapper records a span: its duration, and the time its own wrapped
children took, which gives self time.  Wrappers return exactly what the
wrapped call returns, so traced runs write the same bytes.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

_GATE, _SCAN, _EVAL = "wavepacket.gate", "transit.scan", "eval"


class _Frame:
    __slots__ = ("kind", "child_s")

    def __init__(self, kind: str):
        self.kind = kind
        self.child_s = 0.0


class Tracer:
    """Spans and counts of one scenario run, kept in memory."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.gate_nodes_max = 0
        self._stack: list[_Frame] = []
        self._convergence_error: type = Exception

    def _inside(self, kind: str) -> bool:
        return any(frame.kind == kind for frame in self._stack)

    def _span(self, kind: str, fn, args, kwargs):
        frame = _Frame(kind)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1].child_s += elapsed
            self.counts[kind] += 1
            self.seconds[kind] += elapsed
            self.seconds[kind + ".self"] += elapsed - frame.child_s

    def wrap(self, kind: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(kind, fn, args, kwargs)

        return wrapper

    def wrap_gate(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return self._span(_GATE, fn, args, kwargs)
            except self._convergence_error:
                self.counts["wavepacket.gate_failures"] += 1
                raise

        return wrapper

    def wrap_amplitude(self, fn):
        @functools.wraps(fn)
        def wrapper(p, *args, **kwargs):
            self.counts["scattering.amplitude_points"] += int(np.size(p))
            return self._span("scattering.amplitude", fn, (p, *args), kwargs)

        return wrapper

    def wrap_table(self, init):
        @functools.wraps(init)
        def wrapper(integrator, *args, **kwargs):
            self._span("wavepacket.table", init, (integrator, *args), kwargs)
            self.counts["wavepacket.table_nodes"] += integrator.nodes

        return wrapper

    def wrap_eval(self, method, axis: int):
        """Packet evaluations, classed as gate probe, grid or refinement.

        Calls made inside the gate are probes; otherwise more than three
        points is a grid and up to three is parabolic refinement.  A call
        made from inside another evaluation (``density`` calls
        ``amplitudes``) is part of its caller's span.  ``axis`` is the
        position of the evaluated grid among the method's arguments.
        """

        @functools.wraps(method)
        def wrapper(integrator, *args):
            if self._stack and self._stack[-1].kind.startswith(_EVAL):
                return method(integrator, *args)
            points = int(np.size(args[axis]))
            if self._inside(_GATE):
                kind = "eval.probe"
                self.gate_nodes_max = max(self.gate_nodes_max, integrator.nodes)
            elif points > 3:
                kind = "eval.grid"
                self.counts["wavepacket.grid_node_points"] += integrator.nodes * points
                if self._inside(_SCAN):
                    self.counts["transit.grids_in_scans"] += 1
            else:
                kind = "eval.refine"
            return self._span(kind, method, (integrator, *args), {})

        return wrapper

    def install(self, cli, transit, wavepacket):
        """Wrap the public functions where their callers import them."""
        self._convergence_error = wavepacket.ConvergenceError
        packet = wavepacket.PacketIntegrator
        packet.__init__ = self.wrap_table(packet.__init__)
        # density(z, ts) and amplitudes(z, ts) evaluate ts; density_z(zs, t) zs
        for name, axis in (("amplitudes", 1), ("density", 1), ("density_z", 0)):
            setattr(packet, name, self.wrap_eval(getattr(packet, name), axis))
        wavepacket.transmission_amplitude = self.wrap_amplitude(wavepacket.transmission_amplitude)
        transit.converged_integrator = self.wrap_gate(transit.converged_integrator)
        transit.scan_peaks = self.wrap(_SCAN, transit.scan_peaks)
        cli.scan_peaks = transit.scan_peaks
        cli.filter_stats = self.wrap("wavepacket.filter_stats", cli.filter_stats)
        for name in ("opaque_tunneling_time", "opaque_tunneling_velocity", "series_coefficients"):
            setattr(cli, name, self.wrap("asymptotics.closed_form", getattr(cli, name)))
        # the rest of what cli calls, so that cli self time excludes it
        for name in (
            "numeric_tunneling_time", "transit_measure", "transit_time_predicted",
            "superluminal_detector_bound", "filtered_distributions", "momentum_weight",
            "transmitted_density", "momentum_window",
        ):
            setattr(cli, name, self.wrap("library", getattr(cli, name)))
        cli.run_scenario = self.wrap("cli", cli.run_scenario)

    def metrics(self) -> dict:
        """Per-layer values of the run (files and bytes are added by the caller)."""
        c, s = self.counts, self.seconds
        grid_s = s["eval.grid"]
        return {
            "scattering.amplitude_calls": c["scattering.amplitude"],
            "scattering.amplitude_points": c["scattering.amplitude_points"],
            "scattering.amplitude_s": s["scattering.amplitude"],
            "wavepacket.tables": c["wavepacket.table"],
            "wavepacket.table_nodes": c["wavepacket.table_nodes"],
            "wavepacket.table_s": s["wavepacket.table"],
            "wavepacket.grid_calls": c["eval.grid"],
            "wavepacket.grid_node_points": c["wavepacket.grid_node_points"],
            "wavepacket.grid_s": grid_s,
            "wavepacket.grid_rate": c["wavepacket.grid_node_points"] / grid_s if grid_s else 0.0,
            # one complex128 phase-block entry per node-point, not measured traffic
            "wavepacket.grid_phase_bytes_computed": 16 * c["wavepacket.grid_node_points"],
            "wavepacket.probe_calls": c["eval.probe"],
            "wavepacket.probe_s": s["eval.probe"],
            "wavepacket.gate_calls": c[_GATE],
            "wavepacket.gate_doublings": c["eval.probe"] - c[_GATE],
            "wavepacket.gate_nodes_max": self.gate_nodes_max,
            "wavepacket.gate_failures": c["wavepacket.gate_failures"],
            "wavepacket.gate_s": s[_GATE],
            "wavepacket.filter_stats_calls": c["wavepacket.filter_stats"],
            "wavepacket.filter_stats_s": s["wavepacket.filter_stats"],
            "transit.scans": c[_SCAN],
            "transit.scan_s": s[_SCAN],
            "transit.scan_self_s": s[_SCAN + ".self"],
            "transit.refine_calls": c["eval.refine"],
            "transit.refine_s": s["eval.refine"],
            "transit.grids_per_scan": c["transit.grids_in_scans"] / c[_SCAN] if c[_SCAN] else 0.0,
            "asymptotics.closed_form_s": s["asymptotics.closed_form"],
            "cli.self_s": s["cli.self"],
        }

