"""Pure-numpy fallback for the Monte-Carlo sampling kernel.

Consumes the PCG64 stream at the position (state, inc) through
``random_raw``, one 64-bit output per sample: the high 32 bits give the axial
position and the low 32 bits the squared radial distance, as in the compiled
kernel, which steps PCG64 itself through the same stream.  Every step
evaluates the kernel's float expressions in the kernel's order, in buffers
allocated once per call, so hit counts from the two backends are
bit-identical.
"""

from __future__ import annotations

import numpy as np

# The stream-to-sample mapping and calling convention; the compiled kernel is
# used only when its SAMPLER constant equals this one.
SAMPLER = 3

# Samples per random_raw pass: about 2.75 MB of buffers per concurrent call.
_CHUNK = 1 << 16
_SCALE = 2.0**-32


def count_hits(
    state: int,
    inc: int,
    samples: int,
    r_a: float,
    r_b: float,
    d: float,
    x_lo: float,
    x_hi: float,
    rho: float,
) -> int:
    """Counts samples landing inside both spheres (see the compiled twin)."""
    bit_generator = np.random.PCG64(0)  # a seed spares OS entropy; the state is set next
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state % (1 << 128), "inc": inc % (1 << 128)},
        "has_uint32": 0,
        "uinteger": 0,
    }
    ra2 = r_a * r_a
    rb2 = r_b * r_b
    span = x_hi - x_lo
    rho2 = rho * rho
    n = max(0, min(int(samples), _CHUNK))
    high_buf = np.empty(n, dtype=np.uint64)
    x_buf, t_buf, s_buf = np.empty(n), np.empty(n), np.empty(n)
    in_a_buf, in_b_buf = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    hits = 0
    remaining = int(samples)
    while remaining > 0:
        m = min(remaining, _CHUNK)
        high, x, t, s = high_buf[:m], x_buf[:m], t_buf[:m], s_buf[:m]
        in_a, in_b = in_a_buf[:m], in_b_buf[:m]
        raw = bit_generator.random_raw(m)
        np.right_shift(raw, 32, out=high)
        np.multiply(high, _SCALE, out=x)
        x *= span
        x += x_lo  # x = x_lo + (r >> 32) * 2^-32 * span
        np.bitwise_and(raw, 0xFFFFFFFF, out=raw)
        np.multiply(raw, _SCALE, out=t)
        t *= rho2  # t = (r & 0xffffffff) * 2^-32 * rho2
        np.multiply(x, x, out=s)
        s += t
        np.less_equal(s, ra2, out=in_a)  # x * x + t <= ra2
        x -= d
        x *= x
        x += t
        np.less_equal(x, rb2, out=in_b)  # (x - d) * (x - d) + t <= rb2
        in_a &= in_b
        hits += int(np.count_nonzero(in_a))
        remaining -= m
    return hits
