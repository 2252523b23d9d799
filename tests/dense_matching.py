"""Dense 4x4 matching solve, an independent cross-check of ``solve_matching``.

The raw matching system at both barrier faces (with rescaled interior
unknowns) is solved by LU factorization instead of the library's analytic
elimination.  It is accurate only for moderate opacity (rho L up to
roughly 30), which is why it lives with the tests and not in the library.
"""

import numpy as np

from dirac_tunnel import (
    BarrierConfig,
    MatchingSolution,
    NumericalDegeneracyError,
    evanescent_rho,
    total_energy,
)


def dense_matching(p, cfg: BarrierConfig) -> MatchingSolution:
    p = float(p)
    energy = float(total_energy(p, cfg.mass))
    rho = float(evanescent_rho(p, cfg))
    L = float(cfg.width)
    a = float(cfg.offset)
    k1 = p / (energy + cfg.mass)                # lower/upper ratio, free side
    k2 = 1j * rho / (energy - cfg.v0 + cfg.mass)  # same, exp(-rho z) mode
    phi_a = np.exp(1j * p * a)
    phi_b = np.exp(1j * p * (a + L))
    eps = np.exp(-rho * L)
    mat = np.array(
        [
            [-np.conj(phi_a), 1.0, eps, 0.0],
            [k1 * np.conj(phi_a), k2, -k2 * eps, 0.0],
            [0.0, eps, 1.0, -phi_b],
            [0.0, k2 * eps, -k2, -k1 * phi_b],
        ],
        dtype=complex,
    )
    rhs = np.array([phi_a, k1 * phi_a, 0.0, 0.0], dtype=complex)
    try:
        r_c, a_scaled, b_scaled, t_c = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(
            f"dense matching system is singular at p={p:.6g}"
        ) from exc
    return MatchingSolution(
        r=complex(r_c),
        a_coef=complex(a_scaled * np.exp(rho * a)),
        b_coef=complex(b_scaled * np.exp(-rho * (a + L))),
        t_coef=complex(t_c),
    )
