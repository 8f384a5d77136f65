/* int64 fast path for exact row reduction.
 *
 * Same contract as zappatic._bareiss: Bareiss (1968) fraction-free forward
 * elimination, and the canonical primitive reduced row echelon form.  Every
 * value this kernel stores lies in [-(2^63 - 1), 2^63 - 1].  Each product and
 * difference is overflow-checked before it is stored, divided or passed to an
 * absolute value, so INT64_MIN never appears and no division can trap.
 *
 * Whatever the kernel cannot hold raises OverflowError: an entry outside that
 * range or not an int, a ragged matrix, rows that are not lists or tuples
 * (they are never consumed), and any intermediate that leaves the range.
 * zappatic.linalg then retries the call on the pure-Python kernel, which
 * decides.  Results, when produced, equal the pure kernel's.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>

typedef long long i64;

static int
overflow(void)
{
    PyErr_SetString(PyExc_OverflowError, "int64 kernel overflow");
    return -1;
}

/* *out = a*b - c*d when that and both products fit; -1 and OverflowError
 * otherwise.  INT64_MIN counts as not fitting. */
static inline int
cross(i64 a, i64 b, i64 c, i64 d, i64 *out)
{
    i64 t1, t2, r;
    if (__builtin_mul_overflow(a, b, &t1) || __builtin_mul_overflow(c, d, &t2)
        || __builtin_sub_overflow(t1, t2, &r) || r == LLONG_MIN)
        return overflow();
    *out = r;
    return 0;
}

static i64
gcd(i64 a, i64 b)
{
    while (b) {
        i64 t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/* The rows as a row-major int64 array (PyMem_Free it), or NULL with an error
 * set.  A matrix with no rows or no columns gives a valid empty array. */
static i64 *
load(PyObject *rows, Py_ssize_t *nr, Py_ssize_t *nc)
{
    Py_ssize_t n, c = 0, i, j;
    PyObject **items;
    i64 *m = NULL;

    if (!PyList_Check(rows) && !PyTuple_Check(rows))
        goto refuse;
    n = PySequence_Fast_GET_SIZE(rows);
    items = PySequence_Fast_ITEMS(rows);
    for (i = 0; i < n; i++) {
        PyObject *row = items[i];
        if (!PyList_Check(row) && !PyTuple_Check(row))
            goto refuse;
        if (i == 0)
            c = PySequence_Fast_GET_SIZE(row);
        else if (PySequence_Fast_GET_SIZE(row) != c)
            goto refuse;  /* ragged: the pure kernel raises its ValueError */
    }
    if (c && n > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(i64) / c)
        return (i64 *)PyErr_NoMemory();
    m = PyMem_Malloc(n * c * sizeof(i64) + 1);
    if (m == NULL)
        return (i64 *)PyErr_NoMemory();
    for (i = 0; i < n; i++) {
        PyObject **entries = PySequence_Fast_ITEMS(items[i]);
        for (j = 0; j < c; j++) {
            int big = 0;
            i64 v;
            if (!PyLong_Check(entries[j]))
                goto refuse;
            v = PyLong_AsLongLongAndOverflow(entries[j], &big);
            if (v == -1 && PyErr_Occurred())
                goto fail;
            if (big || v == LLONG_MIN)
                goto refuse;
            m[i * c + j] = v;
        }
    }
    *nr = n;
    *nc = c;
    return m;
refuse:
    overflow();
fail:
    PyMem_Free(m);
    return NULL;
}

/* Bareiss forward elimination in place.  Writes the pivot columns to pivots
 * (when not NULL) and returns the rank, or -1 with OverflowError set.  Every
 * division is exact, so C's truncating division equals Python's floor. */
static Py_ssize_t
forward(i64 *m, Py_ssize_t nr, Py_ssize_t nc, Py_ssize_t *pivots)
{
    Py_ssize_t r = 0, c, i, j;
    i64 prev = 1;

    for (c = 0; c < nc && r < nr; c++) {
        Py_ssize_t piv = r;
        i64 *row_r, p;
        while (piv < nr && m[piv * nc + c] == 0)
            piv++;
        if (piv == nr)
            continue;
        row_r = m + r * nc;
        if (piv != r) {
            i64 *row_p = m + piv * nc;
            for (j = c; j < nc; j++) {  /* both rows are zero left of c */
                i64 t = row_r[j];
                row_r[j] = row_p[j];
                row_p[j] = t;
            }
        }
        p = row_r[c];
        for (i = r + 1; i < nr; i++) {
            i64 *row_i = m + i * nc;
            i64 q = row_i[c];
            for (j = c + 1; j < nc; j++) {
                i64 acc;
                if (cross(p, row_i[j], q, row_r[j], &acc) < 0)
                    return -1;
                row_i[j] = prev == 1 ? acc : acc / prev;
            }
            row_i[c] = 0;
        }
        if (pivots != NULL)
            pivots[r] = c;
        prev = p;
        r++;
    }
    return r;
}

/* Divide a row by its content and make its first nonzero entry positive. */
static void
primitive(i64 *row, Py_ssize_t nc)
{
    i64 g = 0, lead = 0;
    Py_ssize_t j;

    for (j = 0; j < nc && g != 1; j++) {
        if (row[j] != 0) {
            if (lead == 0)
                lead = row[j];
            g = gcd(row[j] < 0 ? -row[j] : row[j], g);
        }
    }
    if (g == 0 || (g == 1 && lead > 0))
        return;
    if (lead < 0)
        g = -g;
    for (j = 0; j < nc; j++)
        row[j] /= g;
}

static PyObject *
rank(PyObject *self, PyObject *rows)
{
    Py_ssize_t nr = 0, nc = 0, k;
    i64 *m = load(rows, &nr, &nc);

    if (m == NULL)
        return NULL;
    k = forward(m, nr, nc, NULL);
    PyMem_Free(m);
    return k < 0 ? NULL : PyLong_FromSsize_t(k);
}

/* The first k rows of m as a tuple of tuples of ints. */
static PyObject *
to_tuples(const i64 *m, Py_ssize_t k, Py_ssize_t nc)
{
    PyObject *out = PyTuple_New(k);
    Py_ssize_t i, j;

    if (out == NULL)
        return NULL;
    for (i = 0; i < k; i++) {
        PyObject *row = PyTuple_New(nc);
        if (row == NULL)
            goto fail;
        PyTuple_SET_ITEM(out, i, row);
        for (j = 0; j < nc; j++) {
            PyObject *x = PyLong_FromLongLong(m[i * nc + j]);
            if (x == NULL)
                goto fail;
            PyTuple_SET_ITEM(row, j, x);
        }
    }
    return out;
fail:
    Py_DECREF(out);
    return NULL;
}

static PyObject *
rref(PyObject *self, PyObject *rows)
{
    Py_ssize_t nr = 0, nc = 0, k, i, a, j;
    Py_ssize_t *pivots;
    PyObject *out = NULL;
    i64 *m = load(rows, &nr, &nc);

    if (m == NULL)
        return NULL;
    pivots = PyMem_Malloc((nr + 1) * sizeof(Py_ssize_t));
    if (pivots == NULL) {
        PyMem_Free(m);
        return PyErr_NoMemory();
    }
    k = forward(m, nr, nc, pivots);
    if (k < 0)
        goto done;
    /* Back-substitution stays integral: combine rows and re-primitivize. */
    for (i = k - 1; i >= 0; i--) {
        i64 *row_i = m + i * nc;
        i64 p;
        primitive(row_i, nc);
        p = row_i[pivots[i]];
        for (a = 0; a < i; a++) {
            i64 *row_a = m + a * nc;
            i64 q = row_a[pivots[i]];
            if (q == 0)
                continue;
            /* both rows are zero left of row a's pivot */
            for (j = pivots[a]; j < nc; j++)
                if (cross(p, row_a[j], q, row_i[j], &row_a[j]) < 0)
                    goto done;
        }
    }
    for (i = 0; i < k; i++)
        primitive(m + i * nc, nc);
    out = to_tuples(m, k, nc);
done:
    PyMem_Free(pivots);
    PyMem_Free(m);
    return out;
}

static PyMethodDef methods[] = {
    {"rank", rank, METH_O,
     "rank(rows)\n--\n\nRank over the rationals, or OverflowError if int64 is not enough."},
    {"rref", rref, METH_O,
     "rref(rows)\n--\n\nCanonical integer reduced row echelon form (tuple of tuple rows),\n"
     "or OverflowError if int64 is not enough."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "zappatic._bareiss_c",
    "int64 fast path for exact row reduction (see zappatic._bareiss).",
    -1,
    methods,
};

PyMODINIT_FUNC
PyInit__bareiss_c(void)
{
    return PyModule_Create(&module);
}
