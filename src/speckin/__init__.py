"""Confined kinetic Langevin simulation and Fokker-Planck verification toolkit.

The package simulates second-order Langevin particles with specular wall
reflection (independent paths and synchronously interacting ensembles whose
drift is a conditional expectation of the running empirical law), solves the
matching kinetic Fokker-Planck equation on a phase-space grid with specular
or inflow boundary data, iterates the nonlinear problem to its fixed point,
and cross-checks the two descriptions against each other and against the
structural identities the dynamics must satisfy: reflection algebra, weight
inequalities, Maxwellian sub/super solutions, energy balances, wall
no-permeability, and sandwich bounds.

The root names only the package and its `__version__`; the objects live in
their modules, e.g. `speckin.langevin.simulate_path`.
"""

try:
    from importlib.metadata import PackageNotFoundError, version

    __version__ = version("speckin")
except PackageNotFoundError:  # running from a source tree without install
    __version__ = "0.0.0+local"
