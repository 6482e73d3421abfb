/* Compiled sampling kernel for the Monte-Carlo intersection-volume estimate.
 *
 * Draws uniforms straight from a numpy BitGenerator through its capsule,
 * three consecutive doubles per sample (x, y, z), which is the order
 * Generator.random((n, 3)) consumes them in, and evaluates the same float
 * expressions as the NumPy fallback in spheredet._mc_python, so the two
 * backends return bit-identical hit counts.
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
    const double span = x_hi - x_lo, two_rho = 2.0 * rho;
    Py_BEGIN_ALLOW_THREADS
    for (i = 0; i < samples; i++) {
        double x = x_lo + rng->next_double(rng->state) * span;
        double y = rng->next_double(rng->state) * two_rho - rho;
        double z = rng->next_double(rng->state) * two_rho - rho;
        double t = y * y + z * z;
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
     "from the box [x_lo, x_hi] x [-rho, rho]^2 in the frame with sphere a at\n"
     "the origin and sphere b at (d, 0, 0)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_mc_core", "Compiled Monte-Carlo sampling kernel.", -1, methods,
};

PyMODINIT_FUNC PyInit__mc_core(void) { return PyModule_Create(&module); }
