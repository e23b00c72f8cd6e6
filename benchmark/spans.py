"""Spans around the public functions of the lcd modules, from outside them.

A span is [name, start, end, parent, attrs]: perf_counter seconds, the
index of the span that was open when it started (-1 for none), and the
counts the layer metrics need. Spans stay in memory until ``write``.

Several modules import functions by name (``from .geometry import
nn_match`` in lcdloss, ``evaluate`` in cli, ``backward`` and friends in
trainer) and call them through their own namespace, so a wrapper
replaces the function in every lcd module that binds it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


def _phase(args, kwargs, result):
    tape = args[0] if args else kwargs["tape"]
    params = args[2] if len(args) > 2 else kwargs.get("params")
    recon = params is not None and "enc.w0" in params
    return {"phase": "recon" if recon else "weighting", "entries": len(tape.entries)}


def _pairs(args, kwargs, result):
    query = args[0] if args else kwargs["query"]
    ref = args[1] if len(args) > 1 else kwargs["ref"]
    return {"pairs": len(query) * len(ref)}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _loaded_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _clouds(args, kwargs, result):
    return {"clouds": len(args[1] if len(args) > 1 else kwargs["dataset"])}


# (module, function, attrs). The end-to-end metrics need only TIMED;
# a traced run adds the rest.
TIMED = (
    ("trainer", "train_step", None),
    ("trainer", "evaluate", _clouds),
)
TRACED = TIMED + (
    ("cli", "main", None),
    ("autodiff", "record", lambda args, kwargs, result: {"op": args[0]}),
    ("autodiff", "backward", _phase),
    ("autodiff", "adam_update", None),
    ("lcdloss", "lcd_forward", None),
    ("lcdloss", "siacon", None),
    ("lcdloss", "siaatt", None),
    ("lcdloss", "normalize_weights", None),
    ("reconnet", "encode", None),
    ("reconnet", "decode", None),
    ("geometry", "nn_match", _pairs),
    ("geometry", "fps", None),
    ("dataio", "gen_shapes", None),
    ("dataio", "load_dataset", None),
    ("checkpoint", "save_checkpoint", _saved_bytes),
    ("checkpoint", "load_checkpoint", _loaded_bytes),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._open: list[int] = []

    def install(self, targets) -> None:
        """Wrap each target that the imported lcd package still has.

        A function a later version deletes or renames is listed in
        ``absent``; its metrics are reported missing, not as failures.
        """
        modules = [m for name, m in list(sys.modules.items()) if m is not None and name.split(".")[0] == "lcd"]
        for module, func, attrs in targets:
            orig = getattr(sys.modules.get(f"lcd.{module}"), func, None)
            if not callable(orig):
                self.absent.append(f"{module}.{func}")
                continue
            wrapper = self._wrap(f"{module}.{func}", orig, attrs)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)

    def _wrap(self, name, fn, attrs):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if attrs is not None:
                try:
                    span[4] = attrs(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass  # a changed signature leaves the count absent
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def read(path) -> list[list]:
    with open(path) as f:
        return [json.loads(line) for line in f]
