"""Spans around the program's layers, installed by the benchmark.

The tracer replaces a layer's public function, at the name the calling
module looks it up by, with a wrapper that records a span: name, round,
start, end and parent. Spans stay in memory and are written once, at the
end. A span's self time is its duration minus the time its child spans
cover. Wrappers exist only while installed; a name the program no longer
has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np


def _rule_nodes(args, kwargs, result) -> int:
    return int(result.nodes.shape[0])


def _multiplier_elems(args, kwargs, result) -> int:
    return int(np.size(result))


def _dft_pairs(args, kwargs, result) -> int:
    return int(args[0].shape[0]) * int(args[1].shape[0])


def _fft_points(args, kwargs, result) -> int:
    return max(int(np.size(args[0])), int(np.size(result)))


def field_points(args, kwargs, result) -> int:
    return int(np.size(result))


def targets(modules: dict) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, count function) for every hook.

    `modules` maps module names to modules (sys.modules will do); numpy.fft
    is hooked because the solvers call it by attribute.
    """
    cli, solvers, kernels, _kernels = (modules[f"wavecauchy.{k}"] for k in (
        "cli", "solvers", "kernels", "_kernels"))
    out = [
        (cli, "solve_point", "solvers.solve_point", None),
        (cli, "spectral_solve", "solvers.spectral_solve", None),
        (solvers, "spectral_state", "solvers.spectral_state", None),
        (kernels, "identity_record", "kernels.identity_record", None),
        (getattr(kernels, "DistributionFunctional", None), "action", "kernels.action", None),
        (solvers, "chain_apply", "radial.chain_apply", None),
        (kernels, "chain_apply", "radial.chain_apply", None),
        (_kernels, "wave_multiplier", "_kernels.wave_multiplier", _multiplier_elems),
        (_kernels, "dft_at_points", "_kernels.dft_at_points", _dft_pairs),
    ]
    for owner in (cli, solvers, kernels):
        for attr in ("sphere_quadrature", "sphere_quadrature_for_order"):
            out.append((owner, attr, "geometry.sphere_rule", _rule_nodes))
    for attr in ("fftn", "ifftn", "rfftn", "irfftn"):
        out.append((np.fft, attr, "solvers.fft", _fft_points))
    return [t for t in out if t[0] is not None and hasattr(t[0], t[1])]


class Tracer:
    def __init__(self, hooks):
        self.hooks = hooks
        self.round = -1  # -1 is set-up: the warm-up before the first round
        self.active = False
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span index, start, child time]
        self._saved: list[tuple] = []
        # (round, name) -> [total seconds, self seconds, calls, count]
        self.stats: dict = defaultdict(lambda: [0.0, 0.0, 0, 0])

    def span(self, name, fn, count=None):
        """fn wrapped so that each call records a span named `name`."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                n = count(args, kwargs, result) if count and result is not None else 0
                tracer._exit(name, n)

        return traced

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, self.round, time.perf_counter(), 0.0, parent])
        self._stack.append([len(self.spans) - 1, self.spans[-1][2], 0.0])

    def _exit(self, name, count):
        end = time.perf_counter()
        index, start, child = self._stack.pop()
        self.spans[index][3] = end
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.stats[(self.round, name)]
        entry[0] += duration
        entry[1] += duration - child
        entry[2] += 1
        entry[3] += count

    def install(self):
        """Put the wrappers in place; `uninstall` restores the originals."""
        for owner, attr, name, count in self.hooks:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, count))
        self.active = True

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.active = False

    def round_stats(self, rnd) -> dict:
        return {name: tuple(v) for (r, name), v in self.stats.items() if r == rnd}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "round", "start", "end", "parent"],
                       "spans": self.spans}, fh)
