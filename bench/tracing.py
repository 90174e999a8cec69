"""Spans around the calls into speckin's public functions, and the replays
that split a traced run into per-layer numbers.

The program has no tracing of its own yet, so the traced run wraps the public
functions a subcommand calls: every module-level name in `speckin` bound to
one of them is rebound to a timing wrapper for the duration of the run and
restored afterwards.  Each span records a name, start, end and parent span;
spans stay in memory until the benchmark writes them out.

Three numbers need work the subcommand does not do, so they come from
replays after the traced run, in spans named `replay.*`:

- `replay.free_flight`: `normals_at` plus `ensemble_free_flight` on the
  inputs of every captured `ensemble_confined_step` call;
- `replay.bridge_count`: each near-wall particle-step again through the
  public `confined_step`, on an `RngStream` at counter
  k * STEP_COUNTER_STRIDE, reading how far the counter moved (the normals
  the near-wall path drew, its free-flight redraws included);
- `replay.linear_solve`: one `solve_specular_linear` call with the converged
  Picard drift history frozen.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import speckin
from speckin.langevin import (STEP_COUNTER_STRIDE, PhaseState, confined_step,
                              ensemble_free_flight)
from speckin.rng import RngStream, normals_at
from speckin.vfp import solve_specular_linear

# public functions timed in the traced run, by module and name
TRACED = (
    ("langevin", "ensemble_confined_step"),
    ("mckean", "run_mckean"),
    ("mckean", "conditional_drift"),
    ("rng", "normals_at"),
    ("vfp", "picard_nonlinear"),
    ("diagnostics", "semigroup_l2_check"),
    ("diagnostics", "sandwich_check"),
    ("diagnostics", "flux_balance_particles"),
    ("diagnostics", "shell_flux_estimate"),
    ("diagnostics", "mc_grid_distance"),
)


class Tracer:
    """Nested spans kept in memory; one parent stack (the run is single-threaded)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)


class Capture:
    """What the traced run saw at the layer boundaries, for counts and replays."""

    def __init__(self):
        self.steps: list[dict] = []  # one per ensemble_confined_step call
        self.normals = 0
        self.kernel_evals = 0
        self.picard: dict | None = None


def _speckin_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "speckin" or name.startswith("speckin."))]


@contextmanager
def traced(tracer: Tracer, capture: Capture):
    """Rebind the TRACED functions everywhere speckin refers to them."""
    hooks = {
        "ensemble_confined_step": _capture_step,
        "conditional_drift": _capture_drift,
        "normals_at": _capture_normals,
        "picard_nonlinear": _capture_picard,
    }
    replaced = []
    for module_name, fn_name in TRACED:
        original = getattr(getattr(speckin, module_name), fn_name)
        wrapper = _wrap(tracer, capture, f"{module_name}.{fn_name}", original,
                        hooks.get(fn_name))
        for module in _speckin_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in replaced:
            setattr(module, attr, original)


def _wrap(tracer, capture, name, original, hook):
    signature = inspect.signature(original)

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = original(*args, **kwargs)
        if hook:
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            hook(capture, call.arguments, result)
        return result

    wrapper.__wrapped__ = original
    return wrapper


def _capture_step(capture, a, result):
    X, U = a["X"], a["U"]
    n = X.shape[0]
    ids = a["stream_ids"]
    capture.steps.append({
        "domain": a["domain"], "params": a["params"], "sigma": a["sigma"],
        "seed": a["seed"], "k": a["step_index"],
        "h": a["params"].h if a["h"] is None else float(a["h"]),
        "ids": np.arange(n, dtype=np.uint64) if ids is None else np.asarray(ids, np.uint64),
        "X": np.array(X), "U": np.array(U),
        "X_out": np.array(result[0]), "U_out": np.array(result[1]),
    })


def _capture_drift(capture, a, result):
    capture.kernel_evals += np.atleast_1d(result).shape[0] * len(a["ensemble"])


def _capture_normals(capture, a, result):
    capture.normals += int(np.size(result))


def _capture_picard(capture, a, result):
    capture.picard = {"grid": a["grid"], "rho0": a["rho0"], "model": a["model"],
                      "weight": a["weight"], "result": result}


# --- replays -----------------------------------------------------------------

WINDOW = 48  # normals per component fetched ahead for each replayed step


@dataclass
class WindowStream(RngStream):
    """An RngStream that serves its draws from a window fetched in advance.

    Draw i is a pure function of (seed, stream_id, i), so slicing a window
    that starts at `start` gives the values `RngStream.normals` would.  It
    only saves the one `normals_at` call per draw that would make the replay
    ten times slower than the run it replays.
    """

    window: np.ndarray | None = None
    start: int = 0

    def normals(self, count):
        lo = self.counter - self.start
        if lo + count > self.window.size:
            self.window = normals_at(self.seed, [self.stream_id], self.start, 2 * (lo + count))[0]
        out = self.window[lo:lo + count]
        self.counter += count
        return out


def replay_particles(tracer: Tracer, capture: Capture) -> dict:
    """Free-flight and bridge replays of every captured confined step.

    Near-wall particle-steps are those the documented trigger selects: an
    endpoint of the free flight lies within max(|u_a|, |u_b|) h + 3 sigma
    h^1.5 of the wall (or within delta_near when set).  The bridge replay
    must reproduce the ensemble's states bit for bit and its hit count.
    """
    out = {"rng_s": 0.0, "free_flight_s": 0.0, "normals": 0, "near": 0,
           "particle_steps": 0, "draws": 0, "hits": 0, "mismatches": 0}
    for step in capture.steps:
        X, U, dt, sigma, seed = step["X"], step["U"], step["h"], step["sigma"], step["seed"]
        d = 1 if X.ndim == 1 else X.shape[1]
        base = step["k"] * STEP_COUNTER_STRIDE
        with tracer.span("replay.free_flight"):
            t0 = perf_counter()
            Z = normals_at(seed, step["ids"], base, 2 * d)
            t1 = perf_counter()
            Xf, Uf = ensemble_free_flight(X, U, dt, sigma, Z)
            t2 = perf_counter()
        out["rng_s"] += t1 - t0
        out["free_flight_s"] += t2 - t0
        out["normals"] += Z.size

        domain, params = step["domain"], step["params"]
        if X.ndim == 1:
            speed = np.maximum(np.abs(U), np.abs(Uf))
        else:
            speed = np.maximum(np.linalg.norm(U, axis=1), np.linalg.norm(Uf, axis=1))
        delta = (params.delta_near if params.delta_near is not None
                 else speed * dt + 3.0 * sigma * dt * math.sqrt(dt))
        far = (domain.signed_distance(X) <= -delta) & (domain.signed_distance(Xf) <= -delta)
        near = np.nonzero(~far)[0]
        out["near"] += near.size
        out["particle_steps"] += X.shape[0]
        if not near.size:
            continue
        with tracer.span("replay.bridge_count"):
            windows = normals_at(seed, step["ids"][near], base, WINDOW * d)
            for row, i in enumerate(near):
                rng = WindowStream(seed, int(step["ids"][i]), base, windows[row], base)
                res = confined_step(domain, PhaseState(X[i], U[i]), params, sigma, rng, h=dt)
                out["draws"] += rng.counter - base
                out["hits"] += len(res.hits)
                same = (np.array_equal(res.state.x, step["X_out"][i])
                        and np.array_equal(res.state.u, step["U_out"][i]))
                out["mismatches"] += not same
    return out


def replay_linear_solve(tracer: Tracer, capture: Capture) -> dict | None:
    """One frozen-drift linear solve, checked against Picard's last sweep."""
    if capture.picard is None:
        return None
    p = capture.picard
    grid, result = p["grid"], p["result"]
    table = result.drift_history
    n_steps = grid.n_steps

    def frozen(t, x):
        return table[min(int(round(t / grid.dt)), n_steps - 1)]

    with tracer.span("replay.linear_solve") as span:
        solved = solve_specular_linear(grid, p["rho0"], frozen, p["model"].sigma,
                                       weight=p["weight"])
    return {
        "seconds": span["end"] - span["start"],
        "matches": bool(np.array_equal(solved.fields, result.solution.fields)),
    }


def write_spans(tracer: Tracer, path) -> None:
    origin = tracer.spans[0]["start"] if tracer.spans else 0.0
    rows = [dict(s, start=s["start"] - origin, end=s["end"] - origin) for s in tracer.spans]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"clock": "perf_counter seconds from the first span", "spans": rows},
                  handle)
        handle.write("\n")
