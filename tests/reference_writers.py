"""Reference oracle: the bundle CSV writers as they were before rows came
from whole arrays.

Every row is a tuple of per-cell Python values, and the writer picks each
column's format from the first row: strings as they are, numbers as %.17g.
`write_csv_one_template` is the writer that came next, every cell of a float
block through one %.17g row template. `speckin.cli` must write the same
bytes for every table.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def write_csv(path: Path, header, rows):
    """Write tuples whose cells keep one type per column: strings as they
    are, numbers as %.17g, which reads back to the same double."""
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        if first is None:
            return
        line = ",".join("%s" if isinstance(cell, str) else "%.17g" for cell in first) + "\n"
        handle.write(line % first)
        handle.writelines(line % row for row in rows)


def write_csv_one_template(path: Path, header, blocks):
    """Write the rows of 2-d float blocks under header, every row from one
    template of %.17g cells, 4096 rows per write."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for block in blocks:
            for lo in range(0, block.shape[0], 4096):
                chunk = block[lo : lo + 4096]
                handle.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def _vector_columns(name: str, dimension: int):
    if dimension == 1:
        return [name]
    return [f"{name}{i}" for i in range(dimension)]


def _components(value, dimension: int):
    if dimension == 1:
        return (float(value),)
    return tuple(float(v) for v in np.asarray(value))


def write_paths_csv(path: Path, snapshots: dict, dimension: int):
    header = ["path_id", "t"] + _vector_columns("x", dimension) + _vector_columns(
        "u", dimension
    )

    def rows():
        for t in sorted(snapshots):
            X, U = snapshots[t]
            for i in range(X.shape[0]):
                yield (str(i), t, *_components(X[i], dimension), *_components(U[i], dimension))

    write_csv(path, header, rows())


def write_hits_csv(path: Path, hits, dimension: int):
    header = (
        ["path_id", "tau"]
        + _vector_columns("x", dimension)
        + _vector_columns("u_pre", dimension)
        + _vector_columns("u_post", dimension)
    )

    def rows():
        for i in range(len(hits)):
            yield (
                str(int(hits.path_id[i])),
                float(hits.time[i]),
                *_components(hits.location[i], dimension),
                *_components(hits.pre_velocity[i], dimension),
                *_components(hits.post_velocity[i], dimension),
            )

    write_csv(path, header, rows())


def write_slices_csv(path: Path, header, solution, history, labels, steps):
    """One row (t, label, u, value) per node of the history slice of each
    step, t being the step's grid time; labels name the rows of a slice."""
    us = solution.grid.u.tolist()

    def rows():
        for k in steps:
            t_k = float(solution.times[k])
            for label, row in zip(labels, history[k].tolist()):
                for u, value in zip(us, row):
                    yield (t_k, label, u, value)

    write_csv(path, header, rows())


def write_drift_csv(path: Path, drift_fields: dict):
    def rows():
        for t in sorted(drift_fields):
            xs, values = drift_fields[t]
            for x, b in zip(xs, values):
                yield (t, x, b)

    write_csv(path, ["t", "x", "B"], rows())
