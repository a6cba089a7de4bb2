/* Compiled kernels: integer max-flow (Dinic) and GF(2^w) matrix rank, with
   the interface and algorithms of the reference wdss._kernels_py.  Vertex
   ids outside [0, n), matrix entries outside [0, order) and lookups outside
   a field table raise IndexError.  Capacities, residuals and the flow are
   64-bit: a capacity that does not fit, or a flow or residual sum past
   2^63 - 1, raises OverflowError, and wdss.kernels reruns the problem in
   pure Python.  Repair graphs from wdss.mincut cannot overflow once their
   capacities convert: the storage edges in:j -> out:j of the collector's k
   nodes form a finite cut, so the flow is at most the finite total, below
   the capacity `big` of infinite edges, and no residual exceeds its edge's
   capacity.  Build: python setup.py build_ext --inplace */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>

#define FAIL(exc, msg) do { PyErr_SetString(exc, msg); goto done; } while (0)

static PyObject *
max_flow(PyObject *self, PyObject *args)
{
    int n, s, t, *ibuf = NULL;
    PyObject *edges_obj, *edges, *item, *reach = NULL, *result = NULL;
    long long *cap = NULL, c = 0, aug, flow = 0;

    if (!PyArg_ParseTuple(args, "iOii:max_flow", &n, &edges_obj, &s, &t))
        return NULL;
    if (s < 0 || s >= n || t < 0 || t >= n)
        return PyErr_Format(PyExc_IndexError, "source or sink out of range");
    if (s == t)
        return PyErr_Format(PyExc_ValueError, "source and sink must differ");
    if (!(edges = PySequence_Fast(edges_obj, "edges must be a sequence")))
        return NULL;
    Py_ssize_t m = PySequence_Fast_GET_SIZE(edges);
    if (m > (INT_MAX - 6 * (Py_ssize_t)n) / 2 - 1)
        FAIL(PyExc_MemoryError, "too many edges");
    int ne = (int)(2 * m), i, u, v, e, qh, qt, top, plen, adv, ok;
    ibuf = PyMem_Malloc(sizeof(int) * (2 * (size_t)ne + 6 * (size_t)n + 2));
    cap = PyMem_Malloc(sizeof(long long) * (ne + 1));
    if (!ibuf || !cap)
        FAIL(PyExc_MemoryError, "no memory for the flow graph");
    int *to = ibuf, *nxt = to + ne, *head = nxt + ne, *level = head + n;
    int *it = level + n, *q = it + n, *stack = q + n, *path = stack + n + 1;

    for (i = 0; i < n; i++)
        head[i] = -1;
    for (i = 0; i < ne; i += 2) {
        /* PyArg_ParseTuple raises OverflowError for a cap past 64 bits */
        if (!(item = PySequence_Tuple(PySequence_Fast_GET_ITEM(edges, i / 2))))
            goto done;
        ok = PyArg_ParseTuple(item, "iiL;each edge must be (u, v, cap)",
                              &u, &v, &c);
        Py_DECREF(item);
        if (!ok)
            goto done;
        if (u < 0 || u >= n || v < 0 || v >= n)
            FAIL(PyExc_IndexError, "vertex id out of range");
        to[i] = v, cap[i] = c, nxt[i] = head[u], head[u] = i;
        to[i + 1] = u, cap[i + 1] = 0, nxt[i + 1] = head[v], head[v] = i + 1;
    }

    for (;;) {
        /* BFS levels; after the last pass, level >= 0 marks the vertices
           reachable in the residual graph: the source side of a min cut */
        for (i = 0; i < n; i++)
            level[i] = -1;
        level[s] = 0;
        qh = qt = 0;
        q[qt++] = s;
        while (qh < qt)
            for (u = q[qh++], e = head[u]; e != -1; e = nxt[e])
                if (cap[e] > 0 && level[to[e]] < 0) {
                    level[to[e]] = level[u] + 1;
                    q[qt++] = to[e];
                }
        if (level[t] < 0)
            break;
        memcpy(it, head, sizeof(int) * n);
        /* iterative DFS for a blocking flow; a path has fewer than n edges */
        top = plen = 0;
        stack[0] = s;
        while (top >= 0) {
            u = stack[top];
            if (u == t) {
                aug = cap[path[0]];
                for (i = 1; i < plen; i++)
                    if (cap[path[i]] < aug)
                        aug = cap[path[i]];
                for (i = 0; i < plen; i++) {
                    cap[path[i]] -= aug;
                    if (__builtin_add_overflow(cap[path[i] ^ 1], aug,
                                               &cap[path[i] ^ 1]))
                        goto overflow;
                }
                if (__builtin_add_overflow(flow, aug, &flow))
                    goto overflow;
                /* retreat to the first saturated edge on the path */
                for (i = 0; i < plen && cap[path[i]] != 0; i++)
                    ;
                top = plen = i;
                continue;
            }
            for (adv = 0, e = it[u]; e != -1 && !adv; e = nxt[e])
                if (cap[e] > 0 && level[to[e]] == level[u] + 1) {
                    it[u] = e;
                    stack[++top] = to[e];
                    path[plen++] = e;
                    adv = 1;
                }
            if (!adv) {
                it[u] = level[u] = -1;  /* dead end, prune */
                top--;
                plen -= plen > 0;
            }
        }
    }

    if (!(reach = PyList_New(n)))
        goto done;
    for (i = 0; i < n; i++) {
        if (!(item = PyLong_FromLong(level[i] >= 0)))
            goto done;
        PyList_SET_ITEM(reach, i, item);
    }
    result = Py_BuildValue("(LO)", flow, reach);
    goto done;
overflow:
    PyErr_SetString(PyExc_OverflowError, "flow does not fit in 64 bits");
done:
    Py_XDECREF(reach);
    Py_DECREF(edges);
    PyMem_Free(ibuf);
    PyMem_Free(cap);
    return result;
}

/* table[i] of a PySequence_Fast table, read in place, as a C long. */
static int
lookup(PyObject *table, long i, long *out)
{
    if (i < 0 || i >= PySequence_Fast_GET_SIZE(table)) {
        PyErr_SetString(PyExc_IndexError, "field table index out of range");
        return -1;
    }
    *out = PyLong_AsLong(PySequence_Fast_GET_ITEM(table, i));
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

static PyObject *
gf_rank(PyObject *self, PyObject *args)
{
    PyObject *mat_obj, *exp_obj, *log_obj, *mat, *exp = NULL, *log = NULL;
    int nrows, ncols, rank = 0, fail = 1, over;
    long order, *a = NULL, lp, lf, lj, x, tmp;

    if (!PyArg_ParseTuple(args, "OiiOOl:gf_rank", &mat_obj, &nrows, &ncols,
                          &exp_obj, &log_obj, &order))
        return NULL;
    if (nrows <= 0 || ncols <= 0)
        return PyLong_FromLong(0);
    Py_ssize_t cells = (Py_ssize_t)nrows * ncols, i;
    if (!(mat = PySequence_Fast(mat_obj, "mat must be a sequence")))
        return NULL;
    if (!(exp = PySequence_Fast(exp_obj, "exp_table must be a sequence"))
        || !(log = PySequence_Fast(log_obj, "log_table must be a sequence")))
        goto done;
    if (PySequence_Fast_GET_SIZE(mat) < cells)
        FAIL(PyExc_IndexError, "mat has under nrows * ncols entries");
    if (!(a = PyMem_Malloc(sizeof(long) * cells)))
        FAIL(PyExc_MemoryError, "no memory for the matrix");
    for (i = 0; i < cells; i++) {
        a[i] = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(mat, i), &over);
        if (a[i] == -1 && PyErr_Occurred())
            goto done;
        if (over || a[i] < 0 || a[i] >= order)
            FAIL(PyExc_IndexError, "matrix entry out of range");
    }

    long q1 = order - 1;
    for (int col = 0; col < ncols && rank < nrows; col++) {
        int piv = rank;
        while (piv < nrows && !a[(Py_ssize_t)piv * ncols + col])
            piv++;
        if (piv == nrows)
            continue;
        long *prow = a + (Py_ssize_t)rank * ncols;
        long *other = a + (Py_ssize_t)piv * ncols;
        for (int j = 0; j < ncols; j++)
            tmp = prow[j], prow[j] = other[j], other[j] = tmp;
        if (lookup(log, prow[col], &lp))
            goto done;
        for (int r = rank + 1; r < nrows; r++) {
            long *row = a + (Py_ssize_t)r * ncols;
            if (!row[col])
                continue;
            if (lookup(log, row[col], &lf))
                goto done;
            lf += q1 - lp;  /* log of row[col] / pivot */
            for (int j = col; j < ncols; j++) {
                if (!prow[j])
                    continue;
                if (lookup(log, prow[j], &lj)
                    || lookup(exp, ((lf + lj) % q1 + q1) % q1, &x))
                    goto done;
                row[j] ^= x;
            }
        }
        rank++;
    }
    fail = 0;
done:
    Py_DECREF(mat);
    Py_XDECREF(exp);
    Py_XDECREF(log);
    PyMem_Free(a);
    return fail ? NULL : PyLong_FromLong(rank);
}

static PyMethodDef methods[] = {
    {"max_flow", max_flow, METH_VARARGS,
     "max_flow(n, edges, s, t) -> (flow, reach); see wdss._kernels_py"},
    {"gf_rank", gf_rank, METH_VARARGS,
     "gf_rank(mat, nrows, ncols, exp_table, log_table, order) -> rank"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels", NULL, -1, methods};

PyMODINIT_FUNC PyInit__kernels(void) { return PyModule_Create(&module); }
