"""Independent oracles for the benchmark's checks.

Nothing here imports condpoint: the values are closed forms, exact rational
arithmetic, or the committed scipy-built paradox fixture (read only), so a
defect in the package's quadrature or Monte Carlo code cannot hide on both
sides of a comparison.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

# Tolerances of the acceptance criteria the workloads reuse.
POSTERIOR_TOL = 1e-4       # criterion 02, grid windows
BIVARIATE_TOL = 1e-3       # criterion 03, window vs density ratio
PARADOX_GAP_TOL = 1e-2     # criterion 08, 20M-row gap vs fixture
PARADOX_MARGIN = 10.0      # criterion 08, gap > 10x combined tolerance
SAMPLER_SE_MULT = 3.0      # criterion 02, sampler windows within 3 se
EXACT_TOL = 1e-12          # criteria 01, 04, 05, discrete values


def posterior_mean(y: float, var_x: float = 1.0, var_noise: float = 1.0) -> float:
    """E[X | X + noise = y] for independent centred Gaussians."""
    return y * var_x / (var_x + var_noise)


def bivariate_mean(rho: float, y: float) -> float:
    """E[Z | Y = y] for a standard bivariate normal with correlation rho."""
    return rho * y


def paradox_fixture(root: Path) -> dict:
    return json.loads((root / "tests" / "fixtures" / "paradox_oracle.json")
                      .read_text(encoding="utf-8"))


def cell_means(atoms, labels, n_cells: int) -> list[Fraction]:
    """Exact E[sum of the atom | cell] for equally weighted atoms."""
    num = [0] * n_cells
    den = [0] * n_cells
    for atom, c in zip(atoms, labels):
        num[c] += sum(atom)
        den[c] += 1
    return [Fraction(n, d) for n, d in zip(num, den)]
