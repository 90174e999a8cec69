"""Reference oracles: the grid checks of `speckin.diagnostics` and the
`validate` sampling floor as they were before each check took one input form.

Each loops the way the old code did: the envelope sandwich slice by slice,
subtracting whole slices; the no-permeability ratio wall by wall; the
sampling floor from the cell masses of the last slice, block-summed. The
one-form checks must agree with them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from speckin.maxwellian import maxwellian_eval


def envelope_excursions(fields, times, grid, lower, upper):
    """(below, above, peak): each slice against the envelopes at its time,
    the whole slice subtracted from (or by) the envelope row."""
    below = above = peak = 0.0
    for k, t in enumerate(np.asarray(times, dtype=float)):
        if lower is not None:
            p_lo = maxwellian_eval(lower, float(t), grid.u)
            below = max(below, float((p_lo[None, :] - fields[k]).max()))
        if upper is not None:
            p_up = maxwellian_eval(upper, float(t), grid.u)
            above = max(above, float((fields[k] - p_up[None, :]).max()))
            peak = max(peak, float(p_up.max()))
    return below, above, peak


def sandwich(fields, times, grid, lower, upper):
    """(absolute, relative, envelope_peak) of the old `sandwich_check`."""
    below, above, peak = envelope_excursions(fields, times, grid, lower, upper)
    if peak == 0.0:
        peak = float(np.abs(np.asarray(fields)).max()) or 1.0
    worst = max(below, above, 0.0)
    return worst, worst / peak, peak


def no_permeability_residual(traces, grid):
    """Worst |int u gamma du| / int |u| gamma du, one (2, n_u) trace and one
    wall at a time; None where a wall has no speed mass."""
    u = grid.u
    absu = np.abs(u)
    worst = 0.0
    for gamma in np.asarray(traces, dtype=float).reshape(-1, 2, grid.n_u):
        for wall in (0, 1):
            den = float((absu * gamma[wall]).sum()) * grid.du
            if den <= 0.0:
                return None
            num = abs(float((u * gamma[wall]).sum())) * grid.du
            worst = max(worst, num / den)
    return worst


def sampling_floor(rho, grid, block, n_paths):
    """sqrt(2 / (pi N)) sum_b sqrt(p_b) over the (bx, bu) blocks of the
    cell masses rho dx du, as `validate` computed it beside the distance."""
    cells = rho * grid.dx * grid.du
    coarse = cells.reshape(
        grid.n_x // block[0], block[0], grid.n_u // block[1], block[1]
    ).sum(axis=(1, 3))
    total = float(coarse.sum())
    noise = 0.0
    if total > 0:
        p = np.clip(coarse / total, 0.0, None)
        noise = math.sqrt(2.0 / (math.pi * n_paths)) * float(np.sqrt(p).sum())
    return noise
