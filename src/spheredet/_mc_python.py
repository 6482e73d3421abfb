"""Pure-numpy fallback for the Monte-Carlo sampling kernel.

Consumes the BitGenerator stream through ``Generator.random``, which fills an
(m, 3) buffer row-major with consecutive ``next_double`` draws, the same
order the compiled kernel uses.  Every step evaluates the kernel's float
expressions in the kernel's order, in buffers allocated once per call, so hit
counts from the two backends are bit-identical.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 20


def count_hits(
    bit_generator,
    samples: int,
    r_a: float,
    r_b: float,
    d: float,
    x_lo: float,
    x_hi: float,
    rho: float,
) -> int:
    """Counts samples landing inside both spheres (see the compiled twin)."""
    gen = np.random.Generator(bit_generator)
    ra2 = r_a * r_a
    rb2 = r_b * r_b
    span = x_hi - x_lo
    two_rho = 2.0 * rho
    n = max(0, min(int(samples), _CHUNK))
    u_buf = np.empty((n, 3))
    x_buf, y_buf, t_buf = np.empty(n), np.empty(n), np.empty(n)
    in_a_buf, in_b_buf = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    hits = 0
    remaining = int(samples)
    while remaining > 0:
        m = min(remaining, _CHUNK)
        u, x, y, t = u_buf[:m], x_buf[:m], y_buf[:m], t_buf[:m]
        in_a, in_b = in_a_buf[:m], in_b_buf[:m]
        gen.random(out=u)
        np.multiply(u[:, 0], span, out=x)
        x += x_lo  # x = x_lo + u0 * span
        np.multiply(u[:, 1], two_rho, out=y)
        y -= rho  # y = u1 * two_rho - rho
        np.multiply(u[:, 2], two_rho, out=t)
        t -= rho  # z, held in t
        t *= t
        y *= y
        t += y  # t = y * y + z * z
        np.multiply(x, x, out=y)
        y += t
        np.less_equal(y, ra2, out=in_a)  # x * x + t <= ra2
        x -= d
        x *= x
        x += t
        np.less_equal(x, rb2, out=in_b)  # (x - d) * (x - d) + t <= rb2
        in_a &= in_b
        hits += int(np.count_nonzero(in_a))
        remaining -= m
    return hits
