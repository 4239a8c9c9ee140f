/* Compiled flow/cut kernels: the C twin of _pyimpl, with the same
   signatures, return values and tie-breaking.  The flows repeat
   _pyimpl._flow's searches step by step over the same ascending
   neighbour lists; the k >= 2 scan runs every flow, including those
   that _pyimpl skips because their answer is already known.  Each
   call copies caps once into an int64 buffer, runs its whole scan with
   the GIL released and returns vertex sets as Python ints of any
   width.  Bad arguments raise ValueError.  Build:

       gcc -O2 -shared -fPIC -I<Python include dir> _cimpl.c -o _cimpl<EXT_SUFFIX>
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef Py_ssize_t idx;

/* One call's network: capacities and residual (n*n each, row-major),
   the ascending lists adj[start[u]..start[u+1]) of the vertices that
   share an arc with u in either direction, and scratch arrays; side
   marks the vertex set that a scan returns. */
typedef struct {
    idx n;
    int64_t *caps, *res;
    idx *adj, *start, *parent, *queue, *dirty;
    char *side, *is_dirty;
} Net;

/* Copies caps into g and builds the residual matrix and the neighbour
   lists in the same block.  Returns -1 with an exception set. */
static int load(Net *g, idx n, PyObject *caps)
{
    PyObject *seq, *item;
    idx nn, i, u, v, e;
    g->caps = NULL;
    if ((seq = PySequence_Fast(caps, "caps must be a sequence")) == NULL)
        return -1;
    nn = PySequence_Fast_GET_SIZE(seq);
    if (n < 0 || (n == 0 ? nn != 0 : nn % n != 0 || nn / n != n)) {
        PyErr_Format(PyExc_ValueError, "need n >= 0 and n*n caps, got n=%zd and %zd caps", n, nn);
        goto fail;
    }
    g->n = n;
    g->caps = PyMem_Malloc(nn * (2 * sizeof(int64_t) + sizeof(idx)) + (4 * n + 1) * sizeof(idx) + 2 * n);
    if (g->caps == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    g->res = g->caps + nn;
    g->adj = (idx *)(g->res + nn);
    g->start = g->adj + nn;
    g->parent = g->start + n + 1;
    g->queue = g->parent + n;
    g->dirty = g->queue + n;
    g->side = (char *)(g->dirty + n);
    g->is_dirty = g->side + n;
    for (i = 0; i < nn; i++) {
        item = PySequence_Fast_GET_ITEM(seq, i);
        /* ints only, as converting other objects runs Python code that could
           resize caps; the bound keeps every flow sum far from overflow */
        if (!PyLong_Check(item) || (g->caps[i] = PyLong_AsLongLong(item)) < 0 || g->caps[i] > INT32_MAX) {
            PyErr_SetString(PyExc_ValueError, "caps entries must be ints in 0..2**31-1");
            goto fail;
        }
    }
    Py_DECREF(seq);
    memset(g->side, 0, n);
    memset(g->is_dirty, 0, n);
    memcpy(g->res, g->caps, nn * sizeof(int64_t));
    for (u = 0, e = 0; u < n; u++) {
        g->start[u] = e;
        for (v = 0; v < n; v++)
            if (g->caps[u * n + v] | g->caps[v * n + u])
                g->adj[e++] = v;
    }
    g->start[n] = e;
    return 0;
fail:
    Py_DECREF(seq);
    PyMem_Free(g->caps);
    return -1;
}

/* Max s->t flow by BFS augmentation, stopping at limit (< 0: none); a
   search stops once t has a parent, and no search runs at the limit.
   So the last search exhausts the residual reach from s, and side
   marks it, exactly when the flow ends below the limit; a flow that
   reaches its limit leaves side as it was.  The residual matrix
   equals caps again on return. */
static int64_t flow(Net *g, idx s, idx t, int64_t limit)
{
    idx n = g->n, *parent = g->parent, *queue = g->queue;
    idx i, u, v, e, qh, qt, ndirty = 0;
    int64_t total = 0, bott;
    while (total != limit) {
        for (i = 0; i < n; i++)
            parent[i] = -1;
        parent[s] = s;
        queue[0] = s;
        for (qh = 0, qt = 1; qh < qt; qh++) {
            u = queue[qh];
            for (e = g->start[u]; e < g->start[u + 1]; e++) {
                v = g->adj[e];
                if (parent[v] < 0 && g->res[u * n + v] > 0) {
                    parent[v] = u;
                    queue[qt++] = v;
                }
            }
            if (parent[t] >= 0)
                break;
        }
        if (qh == qt) {
            memset(g->side, 0, n);
            for (i = 0; i < qt; i++)
                g->side[queue[i]] = 1;
            break;
        }
        bott = -1;
        for (v = t; v != s; v = u) {
            u = parent[v];
            if (bott < 0 || g->res[u * n + v] < bott)
                bott = g->res[u * n + v];
        }
        if (limit >= 0 && total + bott > limit)
            bott = limit - total;
        for (v = t;; v = u) {
            if (!g->is_dirty[v]) {
                g->is_dirty[v] = 1;
                g->dirty[ndirty++] = v;
            }
            if (v == s)
                break;
            u = parent[v];
            g->res[u * n + v] -= bott;
            g->res[v * n + u] += bott;
        }
        total += bott;
    }
    /* only the rows of path vertices changed, and only at neighbours */
    for (i = 0; i < ndirty; i++) {
        u = g->dirty[i];
        g->is_dirty[u] = 0;
        for (e = g->start[u]; e < g->start[u + 1]; e++)
            g->res[u * n + g->adj[e]] = g->caps[u * n + g->adj[e]];
    }
    return total;
}

/* Marks in side the vertices that vertex 0 reaches (or, backward, that
   reach vertex 0) along positive capacities; returns their number. */
static idx reach0(Net *g, int backward)
{
    idx n = g->n, top = 1, count = 1, u, v;
    /* a loop, not memset(side, 0, n), which gcc warns about
       (-Wstringop-overflow) as it cannot see that n > 0 here */
    for (v = 1; v < n; v++)
        g->side[v] = 0;
    g->side[0] = 1;
    g->queue[0] = 0;
    while (top > 0)
        for (u = g->queue[--top], v = 0; v < n; v++)
            if (!g->side[v] && (backward ? g->caps[v * n + u] : g->caps[u * n + v]) > 0) {
                g->side[v] = 1;
                g->queue[top++] = v;
                count++;
            }
    return count;
}

/* side (or its complement) as a Python int, bit v for vertex v. */
static PyObject *side_mask(Net *g, int complement)
{
    idx n = g->n, i;
    unsigned long long m = 0;
    PyObject *bytes, *out;
    if (n <= 64) {
        for (i = 0; i < n; i++)
            if (g->side[i] != complement)
                m |= 1ULL << i;
        return PyLong_FromUnsignedLongLong(m);
    }
    if ((bytes = PyBytes_FromStringAndSize(NULL, (n + 7) / 8)) == NULL)
        return NULL;
    memset(PyBytes_AS_STRING(bytes), 0, (n + 7) / 8);
    for (i = 0; i < n; i++)
        if (g->side[i] != complement)
            PyBytes_AS_STRING(bytes)[i >> 3] |= (char)(1 << (i & 7));
    out = PyObject_CallMethod((PyObject *)&PyLong_Type, "from_bytes", "Os", bytes, "little");
    Py_DECREF(bytes);
    return out;
}

static PyObject *st_max_flow(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *names[] = {"n", "caps", "s", "t", "limit", "matrix", NULL};
    idx n, s, t;
    long long limit = -1, value;
    PyObject *caps, *matrix = Py_None, *out;
    Net g;
    if (!PyArg_ParseTupleAndKeywords(args, kw, "nOnn|LO", names, &n, &caps, &s, &t, &limit, &matrix))
        return NULL;
    if (s < 0 || s >= n || t < 0 || t >= n || s == t)
        return PyErr_Format(PyExc_ValueError, "need distinct s, t in 0..%zd, got %zd, %zd", n - 1, s, t);
    if (load(&g, n, caps) < 0)
        return NULL;
    /* side stays all zero, as load left it, when the flow reaches limit */
    Py_BEGIN_ALLOW_THREADS
    value = flow(&g, s, t, limit);
    Py_END_ALLOW_THREADS
    out = Py_BuildValue("(LN)", value, side_mask(&g, 0));
    PyMem_Free(g.caps);
    return out;
}

/* First side in scan order with fewer than k arcs leaving, or -1.  For
   k = 1 the two reaches from vertex 0 decide; otherwise the flows run
   v ascending, 0->v before v->0.  The search hints after and matrix
   are accepted and ignored: neither changes the answer, and each call
   builds its own network from caps.  st_max_flow ignores its matrix
   hint alike. */
static PyObject *karc_deficient_cut(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *names[] = {"n", "caps", "k", "after", "matrix", NULL};
    idx n, v;
    long long k;
    int found = 0;
    PyObject *caps, *after = Py_None, *matrix = Py_None, *out;
    Net g;
    if (!PyArg_ParseTupleAndKeywords(args, kw, "nOL|OO", names, &n, &caps, &k, &after, &matrix) || load(&g, n, caps) < 0)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    if (n > 1 && k == 1)
        found = reach0(&g, 0) < n ? 1 : reach0(&g, 1) < n ? 2 : 0;
    else if (n > 1 && k > 1)
        for (v = 1; v < n && !found; v++)
            found = flow(&g, 0, v, k) < k || flow(&g, v, 0, k) < k;
    Py_END_ALLOW_THREADS
    /* found = 2: nothing leaves the complement of the backward reach */
    out = found ? side_mask(&g, found == 2) : PyLong_FromLong(-1);
    PyMem_Free(g.caps);
    return out;
}

/* Fixed-root scan of a symmetric network: min over v > 0 of the 0->v
   flow, each limited at the running best; -1 for n < 2. */
static PyObject *min_cut_value(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *names[] = {"n", "caps", NULL};
    idx n, v;
    long long best = -1, value;
    PyObject *caps;
    Net g;
    if (!PyArg_ParseTupleAndKeywords(args, kw, "nO", names, &n, &caps) || load(&g, n, caps) < 0)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    for (v = 1; v < n && best != 0; v++)
        if ((value = flow(&g, 0, v, best)) < best || best < 0)
            best = value;
    Py_END_ALLOW_THREADS
    PyMem_Free(g.caps);
    return PyLong_FromLongLong(best);
}

#define KERNEL(name, doc) {#name, (PyCFunction)(void (*)(void))name, METH_VARARGS | METH_KEYWORDS, doc}

static PyMethodDef methods[] = {
    KERNEL(st_max_flow, "st_max_flow(n, caps, s, t, limit=-1, matrix=None) -> (flow, side_mask), side_mask 0 at the limit"),
    KERNEL(karc_deficient_cut, "karc_deficient_cut(n, caps, k, after=None, matrix=None) -> side with d+(S) < k, or -1"),
    KERNEL(min_cut_value, "min_cut_value(n, caps) -> value of a minimum cut of a symmetric matrix"),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, .m_name = "_cimpl", .m_size = -1, .m_methods = methods};

PyMODINIT_FUNC PyInit__cimpl(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "c") < 0)
        Py_CLEAR(m);
    return m;
}
