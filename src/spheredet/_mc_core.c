/* Compiled sampling kernel for the Monte-Carlo intersection-volume estimate.
 *
 * Draws straight from a numpy BitGenerator through its capsule, one raw
 * 64-bit next_uint64 output per sample: the high 32 bits give the axial
 * position x and the low 32 bits the squared radial distance t = y^2 + z^2,
 * uniform on [0, rho^2) for a point uniform in the disk of radius rho.  For
 * PCG64, the only generator mc_intersection_volume passes, next_uint64 is
 * the stream BitGenerator.random_raw returns, and the NumPy fallback in
 * spheredet._mc_python evaluates the same float expressions on it, so the
 * two backends return bit-identical hit counts.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <numpy/random/bitgen.h>

static PyObject *count_hits(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"bit_generator", "samples", "r_a", "r_b", "d",
                            "x_lo", "x_hi", "rho", NULL};
    PyObject *bit_generator, *capsule, *lock, *ret;
    Py_ssize_t samples, i, hits = 0;
    double r_a, r_b, d, x_lo, x_hi, rho;
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
    bitgen_t *rng = (bitgen_t *)PyCapsule_GetPointer(capsule, "BitGenerator");
    lock = PyObject_GetAttrString(bit_generator, "lock");
    if (lock == NULL || (ret = PyObject_CallMethod(lock, "acquire", NULL)) == NULL) {
        Py_XDECREF(lock);
        Py_DECREF(capsule);
        return NULL;
    }
    Py_DECREF(ret);

    const double ra2 = r_a * r_a, rb2 = r_b * r_b;
    const double span = x_hi - x_lo, rho2 = rho * rho, scale = 0x1p-32;
    Py_BEGIN_ALLOW_THREADS
    for (i = 0; i < samples; i++) {
        uint64_t r = rng->next_uint64(rng->state);
        double x = x_lo + (double)(r >> 32) * scale * span;
        double t = (double)(r & 0xffffffffu) * scale * rho2;
        hits += (x * x + t <= ra2) & ((x - d) * (x - d) + t <= rb2);
    }
    Py_END_ALLOW_THREADS

    ret = PyObject_CallMethod(lock, "release", NULL);
    Py_DECREF(lock);
    Py_DECREF(capsule);
    if (ret == NULL)
        return NULL;
    Py_DECREF(ret);
    return PyLong_FromSsize_t(hits);
}

static PyMethodDef methods[] = {
    {"count_hits", (PyCFunction)(void (*)(void))count_hits, METH_VARARGS | METH_KEYWORDS,
     "count_hits(bit_generator, samples, r_a, r_b, d, x_lo, x_hi, rho)\n\n"
     "Counts samples landing inside both spheres.  Points are drawn uniformly\n"
     "from the cylinder [x_lo, x_hi] x disk(rho) around the x axis, in the frame\n"
     "with sphere a at the origin and sphere b at (d, 0, 0).  Each sample takes\n"
     "one next_uint64 draw: its high 32 bits give x and its low 32 bits the\n"
     "squared radial distance.  Counts match spheredet._mc_python bit for bit\n"
     "when bit_generator is a PCG64, whose random_raw is the next_uint64 stream."},
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
