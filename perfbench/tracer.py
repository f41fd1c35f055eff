"""Per-layer tracing from outside the program.

While installed, the tracer replaces the names through which the ``keypose``
layers call each other with timing wrappers and restores them afterwards;
nothing under ``src/`` changes.  Where ``biaslab`` reaches a layer through
a name it imports (``_gaussian_array``, ``warp`` as ``pipeline`` imports
it, ...), the wrap goes on that imported name.

Spans nest: each wrapper charges its layer the call's duration minus the
time of wrapped calls inside it (self time).  A wrap point that a later
refactor removes is skipped, and the metrics fed only by missing points are
reported as absent.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _render_bytes(channels: int):
    # render helpers take (width_px, height_px, ...)
    return lambda args: (args[0] * args[1] * channels * 8,)


def _warp_sizes(args):
    # warp(src, t, dst_size, ...): bilinear sampling makes four gathers of
    # one float64 per channel for every destination node.
    src, dst = args[0], args[2]
    nodes = dst.width_px * dst.height_px
    return nodes, 4 * nodes * src.data.shape[2] * 8


# (module, attribute path, time metric, call metric, size hook)
# A size hook is (metric names, function of the call's positional arguments
# returning one value per name).
WRAPS = (
    ("cli", "main", "cli.self_s", None, None),
    ("cli", "monte_carlo", "biaslab.self_s", None, None),
    ("biaslab", "substream", "biaslab.prng_s", "biaslab.prng_calls", None),
    ("biaslab", "_BoundUniform.draw", "biaslab.sampler_s", "biaslab.sampler_calls", None),
    ("biaslab", "_BoundCoco.draw", "biaslab.sampler_s", "biaslab.sampler_calls", None),
    ("biaslab", "_gaussian_array", "codec.render_s", "codec.render_calls",
     (("codec.render_bytes",), _render_bytes(1))),
    ("biaslab", "_ccrf_arrays", "codec.render_s", "codec.render_calls",
     (("codec.render_bytes",), _render_bytes(3))),
    ("biaslab", "_argmax_xy", "codec.decode_s", "codec.decode_calls", None),
    ("biaslab", "_dark_offset", "codec.decode_s", None, None),
    ("biaslab", "_quarter_offset", "codec.decode_s", None, None),
    ("biaslab", "rno_upsample", "pipeline.rno_self_s", None, None),
    ("pipeline", "warp", "raster.warp_s", "raster.warp_calls",
     (("raster.warp_nodes", "raster.warp_bytes"), _warp_sizes)),
    ("raster", "ImageGrid.__post_init__", "raster.grid_s", "raster.grid_calls", None),
    ("biaslab", "test_transform", "pipeline.transform_s", "pipeline.transform_calls", None),
    ("biaslab", "input_to_output", "pipeline.transform_s", "pipeline.transform_calls", None),
    ("biaslab", "output_to_source", "pipeline.transform_s", "pipeline.transform_calls", None),
    ("biaslab", "invert", "geometry.invert_s", "geometry.invert_calls", None),
    ("pipeline", "invert", "geometry.invert_s", "geometry.invert_calls", None),
    ("raster", "invert", "geometry.invert_s", "geometry.invert_calls", None),
    ("pipeline", "compose", "geometry.compose_s", "geometry.compose_calls", None),
    ("dataio", "load_coco_keypoints", "dataio.load_s", None, None),
    ("dataio", "write_report", "dataio.report_s", None, None),
)

# Counts read from the values the wrapped calls return.
TRIAL_COUNTS = ("biaslab.trials", "biaslab.skipped", "biaslab.degenerate", "biaslab.useful_ratio")
INSTANCE_COUNT = "dataio.instances"


class Tracer:
    """Installs the wraps on the ``keypose`` modules given by name."""

    def __init__(self, modules: dict) -> None:
        self._modules = modules
        self._saved: list[tuple[object, str, object]] = []
        self.present: set[str] = set()
        self.values: dict[str, float] = defaultdict(float)
        self._stack = [0.0]
        self._useful = 0

    def reset(self) -> None:
        self.values.clear()
        self._stack[:] = [0.0]
        self._useful = 0

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module, path, time_key, call_key, sizes in WRAPS:
            owner = self._modules.get(module)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapped = self._wrap(fn, time_key, call_key, sizes)
            if (module, path) == ("cli", "monte_carlo"):
                wrapped = self._count_trials(wrapped)
                self.present.update(TRIAL_COUNTS)
            elif (module, path) == ("dataio", "load_coco_keypoints"):
                wrapped = self._count_instances(wrapped)
                self.present.add(INSTANCE_COUNT)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
            self.present.update(k for k in (time_key, call_key) if k)
            if sizes:
                self.present.update(sizes[0])
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, time_key, call_key, sizes):
        values, stack, present = self.values, self._stack, self.present
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                values[time_key] += dt - inner
                if call_key:
                    values[call_key] += 1
                if sizes:
                    keys, hook = sizes
                    try:
                        got = hook(args)
                    except (AttributeError, IndexError, TypeError):
                        present.difference_update(keys)  # call form changed
                    else:
                        for key, v in zip(keys, got):
                            values[key] += v

        return traced

    def _count_trials(self, fn):
        def counted(*args, **kwargs):
            stats = fn(*args, **kwargs)
            try:
                used, skipped = stats.n_trials, stats.n_skipped
                failed, degenerate = stats.n_decode_failed, stats.n_degenerate
            except AttributeError:
                self.present.difference_update(TRIAL_COUNTS)
                return stats
            self.values["biaslab.trials"] += used + skipped + failed
            self.values["biaslab.skipped"] += skipped
            self.values["biaslab.degenerate"] += degenerate
            self._useful += used
            return stats

        return counted

    def _count_instances(self, fn):
        def counted(*args, **kwargs):
            loaded = fn(*args, **kwargs)
            self.values[INSTANCE_COUNT] += len(loaded.instances)
            return loaded

        return counted

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Metric values of the calls made since the last ``reset``."""
        out = {key: self.values.get(key, 0.0) for key in self.present}
        if "biaslab.useful_ratio" in self.present:
            trials = self.values.get("biaslab.trials", 0.0)
            out["biaslab.useful_ratio"] = self._useful / trials if trials else 0.0
        return out
