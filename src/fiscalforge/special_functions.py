"""Scalar log-gamma, digamma, and the closed-form KL divergence between
two Dirichlet distributions.

Pure stdlib float64 routines: ln_gamma uses the 9-coefficient Lanczos
approximation (g = 7), digamma uses upward recurrence into x >= 6
followed by a Bernoulli-number asymptotic tail. Inputs below 1e-3 are
accepted but the stated accuracy is only guaranteed on [1e-3, 1e6];
belief updates in this engine never push concentrations that low.

All functions are pure and thread-safe.
"""

import math
from collections.abc import Sequence

from .errors import ContractError

__all__ = ["ln_gamma", "digamma", "dirichlet_kl"]

_HALF_LOG_TWO_PI = 0.9189385332046727

_LANCZOS_G = 7.0
_LANCZOS_BASE = 0.99999999999980993
_LANCZOS_COEF = (
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _require_positive(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ContractError(f"{name} requires a positive finite argument, got {x!r}")
    return x


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for positive real x."""
    x = _require_positive(x, "ln_gamma")
    if x < 0.5:
        # One step of the recurrence keeps the Lanczos core on [0.5, inf).
        return ln_gamma(x + 1.0) - math.log(x)
    z = x - 1.0
    acc = _LANCZOS_BASE
    for i, c in enumerate(_LANCZOS_COEF, start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function for positive real x."""
    x = _require_positive(x, "digamma")
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # Asymptotic series with Bernoulli terms through x**-14; the first
    # neglected term at x = 6 is below 2e-13.
    tail = inv2 * (
        1.0 / 12.0
        - inv2 * (
            1.0 / 120.0
            - inv2 * (
                1.0 / 252.0
                - inv2 * (
                    1.0 / 240.0
                    - inv2 * (
                        1.0 / 132.0
                        - inv2 * (691.0 / 32760.0 - inv2 * (1.0 / 12.0))
                    )
                )
            )
        )
    )
    return acc + math.log(x) - 0.5 * inv - tail


def _validated_concentration(alpha: Sequence[float], name: str) -> list[float]:
    values = [float(a) for a in alpha]
    if len(values) < 2:
        raise ContractError(f"{name} needs at least 2 components, got {len(values)}")
    for a in values:
        if not math.isfinite(a) or a <= 0.0:
            raise ContractError(f"{name} components must be positive finite, got {a!r}")
    return values


def dirichlet_kl(alpha: Sequence[float], beta: Sequence[float]) -> float:
    """KL divergence D(Dir(alpha) || Dir(beta)) between two Dirichlet beliefs.

    Identical inputs give exactly 0.0; otherwise the result is
    non-negative up to float rounding (about 1e-12 in the worst case).
    """
    a = _validated_concentration(alpha, "alpha")
    b = _validated_concentration(beta, "beta")
    if len(a) != len(b):
        raise ContractError(
            f"concentration vectors differ in length: {len(a)} vs {len(b)}"
        )
    sum_a = math.fsum(a)
    sum_b = math.fsum(b)
    psi_sum_a = digamma(sum_a)
    kl = ln_gamma(sum_a) - ln_gamma(sum_b)
    for ai, bi in zip(a, b):
        kl -= ln_gamma(ai) - ln_gamma(bi)
        kl += (ai - bi) * (digamma(ai) - psi_sum_a)
    return kl
