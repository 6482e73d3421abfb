/* Compiled sampling kernel for the Monte-Carlo intersection-volume estimate.
 *
 * Each sample takes one raw 64-bit PCG64 output: the high 32 bits give the
 * axial position x and the low 32 bits the squared radial distance
 * t = y^2 + z^2, uniform on [0, rho^2) for a point uniform in the disk of
 * radius rho.  The NumPy fallback in spheredet._mc_python evaluates the same
 * float expressions, in the same order, on BitGenerator.random_raw, which is
 * the same stream, so the two backends return bit-identical hit counts.
 *
 * The kernel steps PCG64 itself instead of calling next_uint64 once per
 * sample.  Under the generator's lock it reads (state, inc) from
 * bit_generator.state and cuts the call's samples into contiguous shares,
 * one per CPU the process may run on (counted on every call), none smaller
 * than MIN_SHARE.  Share k starts at its first stream position, s * M^b + C_b
 * for the share's begin b, where M^b and C_b come from Brown's O(log n) LCG
 * jump-ahead ("Random Number Generation with Arbitrary Strides", 1994), as
 * in PCG64.advance.  The calling thread counts share 0 and a pthread counts
 * each other share; a share whose thread cannot be started is counted on the
 * calling thread afterwards.  The hits are an integer sum over the same
 * stream positions, so the count does not depend on how many shares ran.
 *
 * Within a share, LANES interleaved lanes step the stream: lane k starts
 * k + 1 steps ahead and every lane moves LANES steps at a time,
 * s' = s * M^4 + C_4, so the four 128-bit multiply chains overlap and the
 * outputs still come out in stream order.  The lanes fill a block of BLOCK
 * raw draws; a separate pass then counts the block's hits, in an AVX2 clone
 * where the toolchain can pick one at load time.  Finally the state n steps
 * ahead, s * M^n + C_n, goes back through the state setter, which keeps
 * has_uint32 and uinteger as random_raw does (PCG64.advance would clear
 * has_uint32).
 *
 * The stepping needs 128-bit integers.  A compiler without them stops here;
 * setup.py then builds the package without this module, and the NumPy
 * fallback returns the same counts.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <unistd.h>

#ifndef __SIZEOF_INT128__
#error "the sampling kernel needs a compiler with 128-bit integers"
#endif

typedef __uint128_t u128;

/* numpy's PCG64 multiplier, PCG_DEFAULT_MULTIPLIER_128. */
#define PCG_MULT (((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)
#define LANES 4
#define BLOCK 1024 /* raw draws per block, a multiple of LANES */
#define MIN_SHARE ((Py_ssize_t)1 << 20) /* fewest samples worth a thread */
#define MAX_SHARES 64

/* Multiple target versions need ifunc, which GCC and Clang offer on x86-64 ELF. */
#if defined(__GNUC__) && defined(__x86_64__) && defined(__ELF__)
#define HIT_PASS __attribute__((target_clones("avx2", "default")))
#else
#define HIT_PASS
#endif

/* Sets (*mult, *plus) so that s * *mult + *plus is the state n steps after s. */
static void lcg_jump(uint64_t n, u128 inc, u128 *mult, u128 *plus)
{
    u128 cur_mult = PCG_MULT, cur_plus = inc, acc_mult = 1, acc_plus = 0;
    for (; n > 0; n >>= 1) {
        if (n & 1) {
            acc_mult *= cur_mult;
            acc_plus = acc_plus * cur_mult + cur_plus;
        }
        cur_plus *= cur_mult + 1;
        cur_mult *= cur_mult;
    }
    *mult = acc_mult;
    *plus = acc_plus;
}

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
    uint32_t high[BLOCK], low[BLOCK];
    u128 lane[LANES], mult, plus;
    Py_ssize_t done, i, hits = 0;
    int k;

    for (k = 0; k < LANES; k++) {
        state = state * PCG_MULT + inc;
        lane[k] = state;
    }
    lcg_jump(LANES, inc, &mult, &plus);
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

/* One contiguous share of a call's samples and the hits counted in it. */
struct share {
    u128 state, inc;
    Py_ssize_t samples, hits;
    double r_a, r_b, d, x_lo, x_hi, rho;
};

static void *count_share(void *arg)
{
    struct share *sh = arg;
    sh->hits = sample_hits(sh->state, sh->inc, sh->samples, sh->r_a, sh->r_b, sh->d,
                           sh->x_lo, sh->x_hi, sh->rho);
    return NULL;
}

/* The number of CPUs this process may run on, at least 1. */
static Py_ssize_t usable_cpus(void)
{
    long n = 0;
#if defined(__linux__) && defined(CPU_COUNT)
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        n = CPU_COUNT(&set);
#endif
#ifdef _SC_NPROCESSORS_ONLN
    if (n < 1)
        n = sysconf(_SC_NPROCESSORS_ONLN);
#endif
    return n > 0 ? n : 1;
}

/* sample_hits over `samples` draws from state s, split into shares. */
static Py_ssize_t sharded_hits(u128 s, u128 inc, Py_ssize_t samples, double r_a,
                               double r_b, double d, double x_lo, double x_hi, double rho)
{
    struct share shares[MAX_SHARES];
    pthread_t threads[MAX_SHARES];
    int started[MAX_SHARES];
    Py_ssize_t n = samples / MIN_SHARE, cpus = usable_cpus(), hits, k;
    u128 mult, plus;

    if (n > cpus)
        n = cpus;
    if (n > MAX_SHARES)
        n = MAX_SHARES;
    if (n < 1)
        n = 1;
    for (k = 0; k < n; k++) {
        Py_ssize_t begin = (Py_ssize_t)((u128)samples * k / n);
        Py_ssize_t end = (Py_ssize_t)((u128)samples * (k + 1) / n);
        lcg_jump((uint64_t)begin, inc, &mult, &plus);
        shares[k] = (struct share){s * mult + plus, inc, end - begin, 0,
                                   r_a, r_b, d, x_lo, x_hi, rho};
        started[k] = k > 0 && pthread_create(&threads[k], NULL, count_share, &shares[k]) == 0;
    }
    count_share(&shares[0]);
    hits = shares[0].hits;
    for (k = 1; k < n; k++) {
        if (started[k])
            pthread_join(threads[k], NULL);
        else
            count_share(&shares[k]);
        hits += shares[k].hits;
    }
    return hits;
}

/* The Python int v as a u128; v is a PCG64 state word, in [0, 2^128). */
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

static PyObject *from_u128(u128 v)
{
    char hex[33];
    snprintf(hex, sizeof hex, "%016llx%016llx", (unsigned long long)(v >> 64),
             (unsigned long long)v);
    return PyLong_FromString(hex, NULL, 16);
}

/* The (state, inc) words of a PCG64 state dict, or -1 with ValueError. */
static int read_pcg64(PyObject *state, PyObject **words, u128 *s, u128 *inc)
{
    PyObject *name, *v, *w;
    if (PyDict_Check(state) && (name = PyDict_GetItemString(state, "bit_generator")) != NULL &&
        PyUnicode_Check(name) && PyUnicode_CompareWithASCIIString(name, "PCG64") == 0 &&
        (*words = PyDict_GetItemString(state, "state")) != NULL && PyDict_Check(*words) &&
        (v = PyDict_GetItemString(*words, "state")) != NULL && PyLong_Check(v) &&
        (w = PyDict_GetItemString(*words, "inc")) != NULL && PyLong_Check(w))
        return as_u128(v, s) < 0 || as_u128(w, inc) < 0 ? -1 : 0;
    PyErr_SetString(PyExc_ValueError, "bit_generator must be a PCG64");
    return -1;
}

static PyObject *count_hits(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"bit_generator", "samples", "r_a", "r_b", "d",
                            "x_lo", "x_hi", "rho", NULL};
    PyObject *bit_generator, *capsule, *lock, *ret, *state, *words, *next = NULL;
    PyObject *type, *value, *traceback;
    Py_ssize_t samples, hits = 0;
    double r_a, r_b, d, x_lo, x_hi, rho;
    u128 s, inc, mult, plus;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "Ondddddd", names, &bit_generator,
                                     &samples, &r_a, &r_b, &d, &x_lo, &x_hi, &rho))
        return NULL;

    capsule = PyObject_GetAttrString(bit_generator, "capsule");
    if (capsule == NULL)
        return NULL;
    if (!PyCapsule_IsValid(capsule, "BitGenerator")) {
        Py_DECREF(capsule);
        PyErr_SetString(PyExc_ValueError, "invalid BitGenerator capsule");
        return NULL;
    }
    Py_DECREF(capsule);
    lock = PyObject_GetAttrString(bit_generator, "lock");
    if (lock == NULL || (ret = PyObject_CallMethod(lock, "acquire", NULL)) == NULL) {
        Py_XDECREF(lock);
        return NULL;
    }
    Py_DECREF(ret);

    state = PyObject_GetAttrString(bit_generator, "state");
    if (state != NULL && read_pcg64(state, &words, &s, &inc) == 0 && samples > 0) {
        Py_BEGIN_ALLOW_THREADS
        hits = sharded_hits(s, inc, samples, r_a, r_b, d, x_lo, x_hi, rho);
        Py_END_ALLOW_THREADS
        lcg_jump((uint64_t)samples, inc, &mult, &plus);
        if ((next = from_u128(s * mult + plus)) != NULL &&
            PyDict_SetItemString(words, "state", next) == 0)
            PyObject_SetAttrString(bit_generator, "state", state);
    }
    Py_XDECREF(next);
    Py_XDECREF(state);

    /* Release the lock on every path, keeping any pending error. */
    PyErr_Fetch(&type, &value, &traceback);
    ret = PyObject_CallMethod(lock, "release", NULL);
    Py_DECREF(lock);
    Py_XDECREF(ret);
    if (type != NULL) {
        PyErr_Restore(type, value, traceback);
        return NULL;
    }
    return ret == NULL ? NULL : PyLong_FromSsize_t(hits);
}

static PyMethodDef methods[] = {
    {"count_hits", (PyCFunction)(void (*)(void))count_hits, METH_VARARGS | METH_KEYWORDS,
     "count_hits(bit_generator, samples, r_a, r_b, d, x_lo, x_hi, rho)\n\n"
     "Counts samples landing inside both spheres.  Points are drawn uniformly\n"
     "from the cylinder [x_lo, x_hi] x disk(rho) around the x axis, in the frame\n"
     "with sphere a at the origin and sphere b at (d, 0, 0).  Each sample takes\n"
     "one raw PCG64 output: its high 32 bits give x and its low 32 bits the\n"
     "squared radial distance.  bit_generator must be a PCG64 (ValueError\n"
     "otherwise); it ends `samples` steps ahead, as after random_raw(samples),\n"
     "and the count matches spheredet._mc_python bit for bit.\n\n"
     "The samples are cut into contiguous shares, one per usable CPU and none\n"
     "smaller than 2^20; each share starts at its own stream position by\n"
     "jump-ahead and runs on its own thread (on the calling thread if one\n"
     "cannot be started).  The count and the final state do not depend on\n"
     "the number of shares."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_mc_core", "Compiled Monte-Carlo sampling kernel.", -1, methods,
};

/* SAMPLER names the stream-to-sample mapping.  montecarlo uses this module
 * only while it equals spheredet._mc_python.SAMPLER, so a stale build is never
 * paired with another sampler's volume formula. */
PyMODINIT_FUNC PyInit__mc_core(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddIntConstant(m, "SAMPLER", 2) < 0)
        Py_CLEAR(m);
    return m;
}
