"""Primitive microbenchmarks of `exactalg` on seeded operands.

Each benchmark times a fixed number of calls, repeats that REPEATS times
and reports the median normalised time per call (see calibrate.py).
Operands are monic with small integer rational and surd parts; the call
counts keep the whole set near three seconds on a 2-core x86 virtual
machine.
"""

from __future__ import annotations

import random
import statistics

from artifact.exactalg import (
    FieldSpec, RatFunc, UPoly, factor_irreducible, poly_gcd,
)

import calibrate

REPEATS = 3


def _scalar(rng: random.Random, F: FieldSpec):
    return F(rng.randint(-3, 3), rng.randint(-3, 3))


def _poly(rng: random.Random, F: FieldSpec, degree: int) -> UPoly:
    """A monic polynomial with coefficients a + b*rt, |a|, |b| <= 3."""
    return UPoly([_scalar(rng, F) for _ in range(degree)] + [F(1)], F.d)


def _per_call(fn, calls: int) -> float:
    """Median normalised seconds per call of fn() over REPEATS timed
    loops (see calibrate.py)."""
    clock = calibrate.Clock()

    def loop():
        for _ in range(calls):
            fn()

    return statistics.median(
        clock.time(loop)[2] / calls for _ in range(REPEATS))


def run(seed: int) -> dict:
    """Per-call times, keyed by metric name."""
    rng = random.Random(seed)
    F = FieldSpec(2)
    x, y = _scalar(rng, F), _scalar(rng, F)
    p8, q8 = _poly(rng, F, 8), _poly(rng, F, 8)
    p32, q32 = _poly(rng, F, 32), _poly(rng, F, 32)
    p16 = _poly(rng, F, 16)
    g31 = _poly(rng, F, 31)
    r1 = RatFunc(_poly(rng, F, 7), _poly(rng, F, 8))
    r2 = RatFunc(_poly(rng, F, 7), _poly(rng, F, 8))
    # Linear, quadratic and linear factors to the first, second and third
    # power: squarefree decomposition plus the exact quadratic split, the
    # shape of the workloads' denominators (sympy is not reached).
    lin1, lin3 = _poly(rng, F, 1), _poly(rng, F, 1)
    to_factor = lin1 * _poly(rng, F, 2) ** 2 * lin3**3
    return {
        "exactalg.quadext_mul_ns": _per_call(lambda: x * y, 5000) * 1e9,
        "exactalg.upoly_mul_d8_us": _per_call(lambda: p8 * q8, 50) * 1e6,
        "exactalg.upoly_mul_d32_us": _per_call(lambda: p32 * q32, 5) * 1e6,
        "exactalg.upoly_divmod_d32_us":
            _per_call(lambda: divmod(p32, p16), 10) * 1e6,
        "exactalg.poly_gcd_d32_us":
            _per_call(lambda: poly_gcd(p32, g31), 1) * 1e6,
        "exactalg.ratfunc_add_d8_us": _per_call(lambda: r1 + r2, 2) * 1e6,
        "exactalg.factor_irreducible_us":
            _per_call(lambda: factor_irreducible(to_factor), 5) * 1e6,
    }
