"""Spans around the public functions of each spectrumshare layer, from outside.

`Tracer.install` wraps each function listed in `TRACED` and rebinds the
wrapper wherever the same function object is bound in a `spectrumshare.*`
module namespace (matched by identity), so a call made through `cli`,
through `equilibrium` or inside the defining module all nest.  A span is
(name, start, end, parent); spans live in flat arrays until the run ends.
A listed function that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute path) of every traced function; the span name is
# "<layer>.<function>", the layer being the module's short name.
TRACED = (
    ("cli", "main"),
    ("scenario", "load_scenario"),
    ("model", "build_catalog"),
    ("model", "utility_eval"),
    ("model", "sir"),
    ("model", "ProfileCatalog.profile_of"),
    ("mechanism", "outcome"),
    ("mechanism", "tax"),
    ("equilibrium", "verify_ne"),
    ("equilibrium", "unanimity_scan"),
    ("equilibrium", "br_dynamics"),
    ("equilibrium", "ne_to_lindahl"),
    ("equilibrium", "lindahl_to_ne"),
    ("equilibrium", "build_report"),
    ("measurement", "run_measurement"),
)


def _span_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute.rsplit('.', 1)[-1]}"


def _count_unanimity(result, counters: Counter) -> None:
    counters["unanimity.tested"] += len(result)
    counters["unanimity.ne"] += sum(1 for r in result if getattr(r, "is_ne_on_grid", False))


def _count_br(result, counters: Counter) -> None:
    counters["br.rounds"] += result.rounds
    counters["br.converged"] += bool(result.converged)


RESULT_COUNTERS = {
    "equilibrium.unanimity_scan": _count_unanimity,
    "equilibrium.br_dynamics": _count_br,
}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counters: Counter = Counter()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter
        on_result = RESULT_COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(tracer.current)
            end.append(0.0)
            tracer.current = index
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                tracer.current = parent[index]
            if on_result is not None:
                on_result(result, tracer.counters)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in all loaded spectrumshare modules."""
        layers = {}
        for module_name in dict.fromkeys(m for m, _ in TRACED):
            try:
                layers[module_name] = importlib.import_module(f"spectrumshare.{module_name}")
            except ModuleNotFoundError:
                layers[module_name] = None
        modules = [m for n, m in sys.modules.items()
                   if n == "spectrumshare" or n.startswith("spectrumshare.")]
        for module_name, attribute in TRACED:
            name = _span_name(module_name, attribute)
            owner = layers[module_name]
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if path:
                setattr(owner, leaf, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def summary(self) -> dict:
        """Per-function calls, busy and self time, plus derived ratios."""
        n = len(self.start)
        names, name_id, parent = self.names, self.name_id, self.parent
        duration = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        in_verify = bytearray(n)
        verify_id = names.index("equilibrium.verify_ne") if "equilibrium.verify_ne" in names else -1
        utility_id = names.index("model.utility_eval") if "model.utility_eval" in names else -1
        calls = Counter()
        busy = Counter()
        own = Counter()
        evals_in_verify = 0
        for i in range(n):
            nid, p = name_id[i], parent[i]
            calls[nid] += 1
            if p >= 0:
                covered[p] += duration[i]
                in_verify[i] = in_verify[p]
                if name_id[p] != nid:
                    busy[nid] += duration[i]
            else:
                busy[nid] += duration[i]
            if nid == verify_id:
                in_verify[i] = 1
            elif nid == utility_id and in_verify[i]:
                evals_in_verify += 1
        for i in range(n):
            own[name_id[i]] += duration[i] - covered[i]
        stats = {}
        for nid, name in enumerate(names):
            stats[name] = {"calls": calls[nid], "busy_s": busy[nid], "self_s": own[nid]}
        for name in self.absent:
            stats[name] = None
        counters = dict(self.counters)
        counters["utility_evals_in_verify"] = evals_in_verify
        return {"functions": stats, "counters": counters}

    def write_spans(self, path: Path) -> None:
        """Dump the raw spans: a JSON header beside four native arrays."""
        with open(path.with_suffix(".bin"), "wb") as out:
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(out)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [["name_id", "H"], ["parent", "l"], ["start", "d"], ["end", "d"]],
            "clock": "time.perf_counter, seconds",
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=2) + "\n")
