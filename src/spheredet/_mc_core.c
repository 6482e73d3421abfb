/* Compiled sampling kernel for the Monte-Carlo intersection-volume estimate.
 *
 * count_hits takes a PCG64 stream position as its two 128-bit LCG words
 * (state, inc) and counts the hits among the next `samples` raw outputs.
 * Each sample takes one raw 64-bit output: the high 32 bits give the axial
 * position x and the low 32 bits the squared radial distance t = y^2 + z^2,
 * uniform on [0, rho^2) for a point uniform in the disk of radius rho.  The
 * NumPy fallback in spheredet._mc_python evaluates the same float expressions,
 * in the same order, on BitGenerator.random_raw from the same position, so
 * the two backends return bit-identical hit counts.
 *
 * This file holds only the arithmetic.  spheredet.montecarlo cuts a call's
 * samples into contiguous shares, finds each share's start words with
 * PCG64.advance and runs the shares on threads; the kernel releases the GIL
 * while it counts, so the shares run in parallel.
 *
 * LANES interleaved lanes step the stream: lane k starts k + 1 steps ahead and
 * every lane moves LANES steps at a time, s' = s * M^4 + C_4, so the four
 * 128-bit multiply chains overlap and the outputs still come out in stream
 * order.  The lanes fill a block of BLOCK raw draws; a separate pass then
 * counts the block's hits, in an AVX2 clone where the toolchain can pick one
 * at load time.
 *
 * The stepping needs 128-bit integers.  A compiler without them stops here;
 * setup.py then builds the package without this module, and the NumPy
 * fallback returns the same counts.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#ifndef __SIZEOF_INT128__
#error "the sampling kernel needs a compiler with 128-bit integers"
#endif

typedef __uint128_t u128;

/* numpy's PCG64 multiplier, PCG_DEFAULT_MULTIPLIER_128. */
#define PCG_MULT (((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)
#define LANES 4
#define BLOCK 1024 /* raw draws per block, a multiple of LANES */

/* Multiple target versions need ifunc, which GCC and Clang offer on x86-64 ELF. */
#if defined(__GNUC__) && defined(__x86_64__) && defined(__ELF__)
#define HIT_PASS __attribute__((target_clones("avx2", "default")))
#else
#define HIT_PASS
#endif

/* PCG64's XSL-RR output of a state. */
static inline uint64_t xsl_rr(u128 s)
{
    uint64_t v = (uint64_t)(s >> 64) ^ (uint64_t)s;
    unsigned rot = (unsigned)(s >> 122);
    return (v >> rot) | (v << (-rot & 63));
}

HIT_PASS static Py_ssize_t count_block(const uint32_t *high, const uint32_t *low, Py_ssize_t m,
                                       double ra2, double rb2, double d, double x_lo,
                                       double span, double rho2)
{
    const double scale = 0x1p-32;
    Py_ssize_t i, hits = 0;
    for (i = 0; i < m; i++) {
        double x = x_lo + (double)high[i] * scale * span;
        double t = (double)low[i] * scale * rho2;
        hits += (x * x + t <= ra2) & ((x - d) * (x - d) + t <= rb2);
    }
    return hits;
}

static Py_ssize_t sample_hits(u128 state, u128 inc, Py_ssize_t samples, double r_a,
                              double r_b, double d, double x_lo, double x_hi, double rho)
{
    const double ra2 = r_a * r_a, rb2 = r_b * r_b, span = x_hi - x_lo, rho2 = rho * rho;
    /* LANES = 4 steps at once: s * M^4 + inc * (1 + M + M^2 + M^3). */
    const u128 m2 = PCG_MULT * PCG_MULT, mult = m2 * m2;
    const u128 plus = inc * (1 + PCG_MULT + m2 + m2 * PCG_MULT);
    uint32_t high[BLOCK], low[BLOCK];
    u128 lane[LANES];
    Py_ssize_t done, i, hits = 0;
    int k;

    for (k = 0; k < LANES; k++) {
        state = state * PCG_MULT + inc;
        lane[k] = state;
    }
    for (done = 0; done < samples; done += BLOCK) {
        Py_ssize_t m = samples - done < BLOCK ? samples - done : BLOCK;
        for (i = 0; i < m; i += LANES)
            for (k = 0; k < LANES; k++) {
                uint64_t r = xsl_rr(lane[k]);
                high[i + k] = (uint32_t)(r >> 32);
                low[i + k] = (uint32_t)r;
                lane[k] = lane[k] * mult + plus;
            }
        hits += count_block(high, low, m, ra2, rb2, d, x_lo, span, rho2);
    }
    return hits;
}

/* The Python int v modulo 2^128 as a u128. */
static int as_u128(PyObject *v, u128 *out)
{
    PyObject *shift = PyLong_FromLong(64), *high;
    if (shift == NULL)
        return -1;
    high = PyNumber_Rshift(v, shift);
    Py_DECREF(shift);
    if (high == NULL)
        return -1;
    *out = ((u128)PyLong_AsUnsignedLongLongMask(high) << 64) |
           PyLong_AsUnsignedLongLongMask(v);
    Py_DECREF(high);
    return PyErr_Occurred() ? -1 : 0;
}

static PyObject *count_hits(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"state", "inc", "samples", "r_a", "r_b", "d",
                            "x_lo", "x_hi", "rho", NULL};
    PyObject *state_word, *inc_word;
    Py_ssize_t samples, hits = 0;
    double r_a, r_b, d, x_lo, x_hi, rho;
    u128 state, inc;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOndddddd", names, &state_word, &inc_word,
                                     &samples, &r_a, &r_b, &d, &x_lo, &x_hi, &rho) ||
        as_u128(state_word, &state) < 0 || as_u128(inc_word, &inc) < 0)
        return NULL;
    if (samples > 0) {
        Py_BEGIN_ALLOW_THREADS
        hits = sample_hits(state, inc, samples, r_a, r_b, d, x_lo, x_hi, rho);
        Py_END_ALLOW_THREADS
    }
    return PyLong_FromSsize_t(hits);
}

static PyMethodDef methods[] = {
    {"count_hits", (PyCFunction)(void (*)(void))count_hits, METH_VARARGS | METH_KEYWORDS,
     "count_hits($module, /, state, inc, samples, r_a, r_b, d, x_lo, x_hi, rho)\n--\n\n"
     "Counts samples landing inside both spheres.  Points are drawn uniformly\n"
     "from the cylinder [x_lo, x_hi] x disk(rho) around the x axis, in the frame\n"
     "with sphere a at the origin and sphere b at (d, 0, 0).  Each sample takes\n"
     "the next raw output of the PCG64 stream whose LCG words are (state, inc),\n"
     "both taken modulo 2^128: its high 32 bits give x and its low 32 bits the\n"
     "squared radial distance.  Returns 0 for samples <= 0.  The count matches\n"
     "spheredet._mc_python bit for bit."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_mc_core", "Compiled Monte-Carlo sampling kernel.", -1, methods,
};

/* SAMPLER names the stream-to-sample mapping and the calling convention.
 * montecarlo uses this module only while it equals spheredet._mc_python.SAMPLER,
 * so a stale build is never paired with another sampler's volume formula or
 * called with another convention's arguments. */
PyMODINIT_FUNC PyInit__mc_core(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddIntConstant(m, "SAMPLER", 3) < 0)
        Py_CLEAR(m);
    return m;
}
