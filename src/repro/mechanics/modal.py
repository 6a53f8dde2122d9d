"""Modal analysis of the clamped-free beam.

Mode shapes, natural frequencies, and modal (effective) masses of the
Euler-Bernoulli cantilever.  The resonant biosensor works on mode 1, but
higher modes matter for two reasons the library exercises: mass
responsivity grows with mode number, and the feedback loop must not lock
onto a higher mode (the high-pass/band-limiting choices in Fig. 5 set
which mode wins).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..constants import CLAMPED_FREE_EIGENVALUES
from ..errors import GeometryError
from .geometry import CantileverGeometry


def eigenvalue(mode: int) -> float:
    """Clamped-free eigenvalue ``lambda_n`` (mode numbering starts at 1).

    The first five are tabulated; higher modes use the asymptotic
    ``lambda_n ~ (2n - 1) pi / 2``, which is accurate to < 1e-9 by n = 6.
    """
    if mode < 1:
        raise GeometryError(f"mode number must be >= 1, got {mode}")
    if mode <= len(CLAMPED_FREE_EIGENVALUES):
        return CLAMPED_FREE_EIGENVALUES[mode - 1]
    return (2 * mode - 1) * math.pi / 2.0


def mode_shape_coefficient(mode: int) -> float:
    """``sigma_n = (cosh l + cos l) / (sinh l + sin l)`` for mode *n*."""
    lam = eigenvalue(mode)
    if lam > 30.0:
        return 1.0  # cosh/sinh overflow-safe asymptote
    return (math.cosh(lam) + math.cos(lam)) / (math.sinh(lam) + math.sin(lam))


def mode_shape(mode: int, xi: np.ndarray) -> np.ndarray:
    """Mode shape ``phi_n(xi)`` on normalized position ``xi = x / L`` in [0, 1].

    Normalized so that ``phi_n(1) = 2`` in the raw form below; use
    :func:`mode_shape_tip_normalized` for the tip-unity convention that the
    effective-mass bookkeeping in this library assumes.
    """
    lam = eigenvalue(mode)
    sigma = mode_shape_coefficient(mode)
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < -1e-12) or np.any(xi > 1.0 + 1e-12):
        raise GeometryError("normalized position must lie in [0, 1]")
    arg = lam * np.clip(xi, 0.0, 1.0)
    return (
        np.cosh(arg) - np.cos(arg) - sigma * (np.sinh(arg) - np.sin(arg))
    )


def mode_shape_tip_normalized(mode: int, xi: np.ndarray) -> np.ndarray:
    """Mode shape scaled so the tip displacement is exactly 1."""
    tip = mode_shape(mode, np.asarray([1.0]))[0]
    return mode_shape(mode, xi) / tip


@functools.lru_cache(maxsize=256)
def effective_mass_fraction(mode: int, samples: int = 20001) -> float:
    """Modal mass / total mass for tip-normalized mode *n*.

    ``m_eff = m * integral(phi_n(xi)^2 d xi)`` with ``phi_n(1) = 1``.
    Mode 1 gives the textbook 0.2500 (exactly 1/4 for the ideal clamped-
    free beam); a lumped tip-mass model would use 33/140 ~ 0.2357 from the
    static deflection shape instead.  A pure function of its arguments,
    memoized: every loop build asks for the same few modes.
    """
    xi = np.linspace(0.0, 1.0, samples)
    phi = mode_shape_tip_normalized(mode, xi)
    return float(np.trapezoid(phi**2, xi))


@dataclass(frozen=True)
class Mode:
    """One vibration mode of a specific cantilever.

    Attributes
    ----------
    number:
        Mode index (1 = fundamental).
    frequency:
        Natural frequency in vacuum [Hz].
    effective_mass:
        Tip-normalized modal mass [kg].
    effective_stiffness:
        ``k_eff = m_eff (2 pi f)^2`` [N/m].
    """

    number: int
    frequency: float
    effective_mass: float
    effective_stiffness: float


def natural_frequency(geometry: CantileverGeometry, mode: int = 1) -> float:
    """Vacuum natural frequency of mode *n* [Hz].

    ``f_n = (lambda_n^2 / 2 pi) sqrt(EI / (rho A)) / L^2`` with composite
    ``EI`` and mass-per-length from the layer stack.
    """
    lam = eigenvalue(mode)
    ei = geometry.flexural_rigidity
    mu = geometry.mass_per_length
    return (lam**2 / (2.0 * math.pi)) * math.sqrt(ei / mu) / geometry.length**2


def analyze_modes(geometry: CantileverGeometry, count: int = 3) -> list[Mode]:
    """First ``count`` modes of a cantilever with modal masses/stiffnesses."""
    if count < 1:
        raise GeometryError(f"mode count must be >= 1, got {count}")
    modes = []
    total_mass = geometry.mass
    for n in range(1, count + 1):
        f_n = natural_frequency(geometry, n)
        m_eff = effective_mass_fraction(n) * total_mass
        k_eff = m_eff * (2.0 * math.pi * f_n) ** 2
        modes.append(
            Mode(
                number=n,
                frequency=f_n,
                effective_mass=m_eff,
                effective_stiffness=k_eff,
            )
        )
    return modes


@functools.lru_cache(maxsize=256)
def modal_participation_of_uniform_load(mode: int, samples: int = 20001) -> float:
    """``integral(phi_n) / integral(phi_n^2)`` for tip-normalized phi.

    The modal force produced by a uniformly distributed drive (such as the
    Lorentz force of a coil running along the cantilever edges) is this
    factor times ``q L`` referenced to tip motion.  Pure and memoized,
    like :func:`effective_mass_fraction`.
    """
    xi = np.linspace(0.0, 1.0, samples)
    phi = mode_shape_tip_normalized(mode, xi)
    return float(np.trapezoid(phi, xi) / np.trapezoid(phi**2, xi))
