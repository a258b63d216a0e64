"""In-memory span recorder that times the library from outside.

The library source stays unchanged.  :func:`install` replaces each public
function listed in :data:`TARGETS` by a wrapper at every place a
``manifold_xi`` module refers to it (for example ``rank_xi.build_nn_graph``
and ``dep_tests.build_nn_graph`` both point at ``nn_graph.build_nn_graph``),
and the returned callable puts the originals back.  Each wrapped call
records one span: name, start, end, the span that was open when it started
in the same thread (its parent), the thread, the bench phase, and a few
attributes taken from its arguments or result.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import itertools
import sys
import threading
import time

# (defining module, public function) pairs that get a span per call.
TARGETS = (
    ("rngs", "substream"),
    ("manifold_gen", "generate"),
    ("manifold_gen", "read_dataset_csv"),
    ("nn_graph", "build_nn_graph"),
    ("nn_graph", "estimate_constants_empirical"),
    ("rank_xi", "compute_ranks"),
    ("rank_xi", "xi_n"),
    ("dep_tests", "xi_test_asymptotic"),
    ("dep_tests", "xi_test_permutation"),
    ("dep_tests", "dcor_test_permutation"),
    ("null_constants", "nn_pair_limit"),
    ("null_constants", "nn_triple_limit_mc"),
    ("null_constants", "null_variance"),
    ("null_constants", "default_null_constants"),
    ("simulate", "run_experiment"),
    ("cli", "cli_dispatch"),
)

PACKAGE = "manifold_xi"


def _nn_attrs(bound, result):
    nn = result.nn_index
    return {"rows": int(nn.shape[0]),
            "nn_sha": hashlib.sha256(nn.astype("<i8").tobytes()).hexdigest()[:16]}


def _perm_attrs(bound, result):
    return {"B": int(result.B), "n": int(len(bound.arguments["y"]))}


def _mc_attrs(bound, result):
    return {"samples": int(bound.arguments["samples"])}


# Attributes recorded per span, from the bound arguments and the result.
_ATTRS = {
    "nn_graph.build_nn_graph": _nn_attrs,
    "dep_tests.xi_test_permutation": _perm_attrs,
    "dep_tests.dcor_test_permutation": _perm_attrs,
    "null_constants.nn_triple_limit_mc": _mc_attrs,
}


class Tracer:
    """Collects spans in memory; ``phase`` tags every span started under it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"id": next(self._ids), "name": name,
                  "parent": stack[-1] if stack else None,
                  "thread": threading.get_ident(), "phase": self.phase,
                  "start": time.perf_counter(), "end": 0.0, "attrs": attrs}
        stack.append(record["id"])
        try:
            yield record
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, name: str, fn):
        extract = _ATTRS.get(name)
        signature = inspect.signature(fn) if extract else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if extract is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record["attrs"].update(extract(bound, result))
            return result

        return traced


def install(tracer: Tracer):
    """Wrap every target at each module attribute that refers to it.

    Returns a callable that restores the original functions.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    patched = []
    for module_name, func_name in TARGETS:
        original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
        wrapper = tracer.wrap(f"{module_name}.{func_name}", original)
        for module in modules:
            if getattr(module, func_name, None) is original:
                setattr(module, func_name, wrapper)
                patched.append((module, func_name, original))

    def uninstall():
        for module, func_name, original in patched:
            setattr(module, func_name, original)

    return uninstall


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span: duration minus the union its children cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span["id"]] = span["end"] - span["start"] - covered
    return result
