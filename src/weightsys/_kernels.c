/* Compiled kernels; see _kernels_py.py for the contract and conventions.
 *
 * Plain CPython API over int arrays.  alpha is copied out of a tuple, so
 * no __index__ callback can resize it mid-read, and every entry is
 * range-checked before it is used as an index.  marking_scan also checks
 * that alpha is a connected fixed-point-free pairing: that bounds every
 * face count by v/2 + 2 and so keeps the writes into by_b in range.
 * Build with `python setup.py build_ext --inplace`.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define MAX_V 28
#define MAX_N (3 * MAX_V)

static PyObject *value_error(const char *message)
{
    PyErr_SetString(PyExc_ValueError, message);
    return NULL;
}

/* Copy the n entries of the tuple seq into a, each checked to lie in
 * 0..n-1.  Returns 0, or -1 with an exception set. */
static int read_alpha(PyObject *seq, Py_ssize_t n, Py_ssize_t *a)
{
    for (Py_ssize_t d = 0; d < n; d++) {
        int overflow;
        long x = PyLong_AsLongAndOverflow(PyTuple_GET_ITEM(seq, d),
                                          &overflow);
        if (x == -1 && PyErr_Occurred())
            return -1;
        if (overflow || x < 0 || x >= n) {
            value_error("alpha entry outside 0..3v-1");
            return -1;
        }
        a[d] = x;
    }
    return 0;
}

static Py_ssize_t sigma(Py_ssize_t x) { return x % 3 == 2 ? x - 2 : x + 1; }
static Py_ssize_t sigma_inv(Py_ssize_t x) { return x % 3 == 0 ? x + 2 : x - 1; }

/* Number of cycles of the permutation p of 0..n-1. */
static int count_cycles(const Py_ssize_t *p, unsigned char *seen,
                        Py_ssize_t n)
{
    int cycles = 0;
    for (Py_ssize_t d = 0; d < n; d++)
        seen[d] = 0;
    for (Py_ssize_t start = 0; start < n; start++) {
        if (seen[start])
            continue;
        cycles++;
        for (Py_ssize_t d = start; !seen[d]; d = p[d])
            seen[d] = 1;
    }
    return cycles;
}

static PyObject *face_count(PyObject *self, PyObject *alpha)
{
    PyObject *seq = PySequence_Tuple(alpha);
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(seq);
    PyObject *result = NULL;
    Py_ssize_t *a = NULL; /* alpha, then sigma . alpha */
    unsigned char *seen = NULL;
    if (n % 3)
        value_error("alpha length must be a multiple of 3");
    else if ((a = PyMem_New(Py_ssize_t, 2 * n + 1)) == NULL ||
             (seen = PyMem_Malloc((size_t)n + 1)) == NULL)
        PyErr_NoMemory();
    else if (read_alpha(seq, n, a) == 0) {
        for (Py_ssize_t d = 0; d < n; d++)
            a[n + d] = sigma(a[d]);
        result = PyLong_FromLong(count_cycles(a + n, seen, n));
    }
    PyMem_Free(a);
    PyMem_Free(seen);
    Py_DECREF(seq);
    return result;
}

/* Every vertex reachable from vertex 0 along alpha. */
static int connected(const Py_ssize_t *a, int v)
{
    unsigned char reached[MAX_V] = {0};
    int stack[MAX_V], top = 0, count = 1;
    reached[0] = 1;
    stack[top++] = 0;
    while (top) {
        int i = stack[--top];
        for (int d = 3 * i; d < 3 * i + 3; d++) {
            int j = (int)(a[d] / 3);
            if (!reached[j]) {
                reached[j] = 1;
                count++;
                stack[top++] = j;
            }
        }
    }
    return count == v;
}

/* The half scan of _kernels_py.marking_scan: only masks with bit v-1
 * clear are traced (a mask and its complement give mirror images, with
 * equal face counts and, v being even, equal signs), so the totals are
 * doubled at the end.  The half is walked in Gray order, step k flipping
 * vertex ctz(k) and alternating the sign.  The face permutation p takes
 * d to sigma(alpha(d)) or sigma^-1(alpha(d)) by the state of vertex
 * alpha(d) / 3, so a flip at vertex i rewrites p at alpha(3i..3i+2) only.
 * first_mask is the minimum spherical Gray mask, the first spherical mask
 * in counter order.  Returns (by_b, spherical, first_mask); the signed
 * spherical count is by_b[v/2 + 2], so it is not tallied apart. */
static PyObject *marking_scan(PyObject *self, PyObject *args)
{
    PyObject *alpha;
    int v;
    if (!PyArg_ParseTuple(args, "Oi:marking_scan", &alpha, &v))
        return NULL;
    PyObject *seq = PySequence_Tuple(alpha);
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(seq);
    Py_ssize_t a[MAX_N], fwd[MAX_N], bwd[MAX_N], p[MAX_N];
    unsigned char seen[MAX_N];
    int fail = 1;
    if (n != 3 * (Py_ssize_t)v)
        value_error("alpha length does not match vertex count");
    else if (v > MAX_V)
        value_error("marking scan capped at v = 28");
    else if (read_alpha(seq, n, a) == 0)
        fail = 0;
    Py_DECREF(seq);
    if (fail)
        return NULL;
    for (Py_ssize_t d = 0; d < n; d++)
        if (a[d] == d || a[a[d]] != d)
            return value_error("alpha is not a fixed-point-free pairing");
    int b_top = v / 2 + 2;
    long long by_b[MAX_V / 2 + 3] = {0};
    long long spherical = 0, first_mask = -1;
    if (v == 0)
        by_b[0] = 1; /* the empty graph: one marking, no faces */
    else if (!connected(a, v))
        return value_error("marking scan requires a connected pairing");
    else {
        for (Py_ssize_t d = 0; d < n; d++) {
            fwd[d] = p[d] = sigma(a[d]);
            bwd[d] = sigma_inv(a[d]);
        }
        Py_BEGIN_ALLOW_THREADS
        unsigned long gray = 0;
        int sign = 1;
        for (unsigned long k = 0; k < 1UL << (v - 1); k++) {
            if (k) {
                int i = 0;
                while (!(k >> i & 1))
                    i++;
                gray ^= 1UL << i;
                sign = -sign;
                const Py_ssize_t *table = gray >> i & 1 ? bwd : fwd;
                for (int t = 3 * i; t < 3 * i + 3; t++)
                    p[a[t]] = table[a[t]];
            }
            int faces = count_cycles(p, seen, n);
            by_b[faces] += sign;
            if (faces == b_top) {
                if (first_mask < 0 || (long long)gray < first_mask)
                    first_mask = (long long)gray;
                spherical++;
            }
        }
        Py_END_ALLOW_THREADS
        for (int b = 0; b <= b_top; b++)
            by_b[b] *= 2;
        spherical *= 2;
    }

    PyObject *out = PyList_New(b_top + 1);
    if (out == NULL)
        return NULL;
    for (int b = 0; b <= b_top; b++) {
        PyObject *c = PyLong_FromLongLong(by_b[b]);
        if (c == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, b, c);
    }
    return Py_BuildValue("(NLL)", out, spherical, first_mask);
}

static PyMethodDef methods[] = {
    {"face_count", face_count, METH_O,
     "face_count(alpha): number of faces of the rotation system."},
    {"marking_scan", marking_scan, METH_VARARGS,
     "marking_scan(alpha, v) -> (signed_by_b, spherical, first_mask)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_kernels",
    .m_doc = "Compiled twin of weightsys._kernels_py.", .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    return PyModule_Create(&module);
}
