"""Spans around calls into widthlab's public functions.

The tracer replaces each traced function by a wrapper in every loaded
widthlab module that refers to it, so calls made inside the library (the
runner calling ``entropy_number``, ``entropy_number`` reaching
``minimum_enclosing_ball`` through the outer candidate pool) are recorded as
child spans too.  A span holds its name, start, end, parent and round, plus
the counts read off the call's result; spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import configparser
import inspect
import re
import statistics
import sys
import threading
import time
from pathlib import Path

# public functions traced per layer; tiny helpers called in inner loops
# (sigma_value, norm_of, bracket_leq, ...) are left out to keep the overhead low
TRACED = {
    "spaces": ["chebyshev_radius", "minimum_enclosing_ball"],
    "entropy": ["entropy_number", "cover_number", "packing_number", "greedy_cover",
                "max_packing", "min_cover_exact"],
    "widths": ["linear_width", "nonlinear_width"],
    "lipschitz": ["build_phi", "build_psi", "build_theta_xi", "john_ellipsoid",
                  "estimate_lipschitz", "fixed_width_upper"],
    "harness": ["entropy_sandwich", "packing_cover_sandwich", "check_width_chain",
                "check_entropy_from_width", "check_carl", "check_generalized_carl",
                "check_L6_schedule", "check_lower_bound_theorems", "witness_envelope",
                "fit_rate"],
    "mterm": ["check_sigma_chain"],
}
LAYERS = tuple(TRACED)
SUITE_CFG = Path(__file__).resolve().parent / "suite.cfg"
# the CLI's progress line for one config section, printed to stderr
PROGRESS = re.compile(r"^\[(?P<id>[^\]]+)\] \S+: .*\((?P<ms>\d+) ms\)$")

# per-layer metric -> spans it sums; the time of a function is the
# inclusive time of its outermost spans
TIMED = {
    "spaces.chebyshev_radius_s": ["spaces.chebyshev_radius"],
    "spaces.minimum_enclosing_ball_s": ["spaces.minimum_enclosing_ball"],
    "entropy.entropy_number_s": ["entropy.entropy_number"],
    "entropy.cover_number_s": ["entropy.cover_number"],
    "entropy.packing_number_s": ["entropy.packing_number"],
    "widths.linear_width_s": ["widths.linear_width"],
    "widths.nonlinear_width_s": ["widths.nonlinear_width"],
    "lipschitz.build_s": ["lipschitz.build_phi", "lipschitz.build_psi", "lipschitz.build_theta_xi"],
    "lipschitz.john_ellipsoid_s": ["lipschitz.john_ellipsoid"],
    "lipschitz.estimate_lipschitz_s": ["lipschitz.estimate_lipschitz"],
    "lipschitz.fixed_width_upper_s": ["lipschitz.fixed_width_upper"],
    "harness.sandwich_s": ["harness.entropy_sandwich", "harness.packing_cover_sandwich"],
    "harness.check_width_chain_s": ["harness.check_width_chain"],
    "mterm.check_sigma_chain_s": ["mterm.check_sigma_chain"],
}


def _describe(result) -> dict:
    """Counts read off a traced call's result."""
    kind = type(result).__name__
    if kind == "Bracket":
        return {"brackets": [(result.lower, result.upper, result.exact)]}
    if kind == "WidthResult":
        br = result.bracket
        return {"brackets": [(br.lower, br.upper, br.exact)], "restarts": result.restarts_used}
    if kind == "JohnMap":
        return {"iterations": result.iterations}
    verdicts = [result] if kind == "Verdict" else result if isinstance(result, list) else []
    decided = sum(type(v).__name__ == "Verdict" and v.status in ("holds", "violated")
                  for v in verdicts)
    return {"decided": decided} if verdicts else {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.round = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                idx = len(self.spans)
                span = {"name": name, "parent": stack[-1] if stack else None,
                        "round": self.round, "start": time.perf_counter(), "end": None}
                self.spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            span.update(_describe(result))
            if name == "lipschitz.estimate_lipschitz":
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["pairs"] = bound.arguments["pairs"]
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Swap every traced function for its wrapper in all widthlab modules."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "widthlab" or k.startswith("widthlab."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"widthlab.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()


def _ancestors(spans: list[dict], span: dict):
    p = span["parent"]
    while p is not None:
        yield spans[p]
        p = spans[p]["parent"]


def _layer(span: dict) -> str:
    return span["name"].split(".")[0]


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def round_metrics(spans: list[dict], rnd: int) -> dict[str, float]:
    """Per-layer metrics of one round; parents index the whole span list."""
    own = [s for s in spans if s["round"] == rnd]
    child_time: dict[int, float] = {}
    for s in own:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _duration(s)
    outermost = [s for s in own
                 if not any(a["name"] == s["name"] for a in _ancestors(spans, s))]
    layer_top = {layer: [] for layer in LAYERS}
    for s in own:
        if not any(_layer(a) == _layer(s) for a in _ancestors(spans, s)):
            layer_top[_layer(s)].append(s)

    out = {metric: sum(_duration(s) for s in outermost if s["name"] in names)
           for metric, names in TIMED.items()}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(_duration(s) - child_time.get(i, 0.0)
                                     for i, s in enumerate(spans)
                                     if s["round"] == rnd and _layer(s) == layer)
    out["spaces.calls"] = sum(_layer(s) == "spaces" for s in own)
    out["entropy.entropy_number_calls"] = sum(s["name"] == "entropy.entropy_number" for s in own)
    out["widths.calls"] = len(layer_top["widths"])
    out["widths.restarts_used"] = sum(s.get("restarts", 0) for s in layer_top["widths"])
    for layer in ("entropy", "widths"):
        brackets = [b for s in layer_top[layer] for b in s.get("brackets", [])]
        out[f"{layer}.exact_brackets"] = sum(b[2] for b in brackets)
        out[f"{layer}.bracket_rel_width"] = rel_width(brackets)
    out["lipschitz.john_iterations"] = sum(s.get("iterations", 0) for s in own)
    est = [s for s in own if s["name"] == "lipschitz.estimate_lipschitz"]
    est_time = sum(_duration(s) for s in est)
    out["lipschitz.pairs_per_s"] = sum(s["pairs"] for s in est) / est_time if est_time else 0.0
    out["harness.verdicts_decided"] = sum(s.get("decided", 0) for s in layer_top["harness"])
    return out


def rel_width(brackets) -> float:
    """Mean of (upper - lower)/upper over brackets with a positive upper side."""
    widths = [(u - lo) / u for lo, u, _ in brackets if u > 0]
    return sum(widths) / len(widths) if widths else 0.0


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}


def suite_sections() -> list[str]:
    parser = configparser.ConfigParser()
    parser.read(SUITE_CFG)
    return parser.sections()


def runner_metrics(log: str, wall: float, sections: list[str], cli: bool) -> dict[str, float]:
    """Per-section times from the CLI's own progress lines on stderr."""
    ms = {m["id"]: int(m["ms"]) for m in map(PROGRESS.match, log.splitlines()) if m}
    out = {f"runner.exp.{s}_s": ms.get(s, 0) / 1000 for s in sections}
    out["runner.section_sum_s"] = sum(ms.values()) / 1000
    out["runner.overhead_s"] = wall - out["runner.section_sum_s"] if cli else 0.0
    return out
