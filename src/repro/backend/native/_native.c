/* _native.c — the compiled per-access loop behind the `native` backend.
 *
 * Engine.step(i, stop, ...) runs the reference core loop of
 * repro/cpu/core.py over accesses [i, stop): dispatch (frontend rate,
 * window and LSQ occupancy), instruction fetch, issue (LS-unit rate,
 * address dependences), the direct-mapped L1D probe, and the flattened
 * demand-miss path of repro/memory/hierarchy.py (lazy-deletion MSHR
 * heap, L1/L2 buses, L2 set probe/fill/LRU, DRAM, prefetch issue, TCP
 * training).  The Python driver (repro/backend/native/engine.py) hands
 * it one range per span between probe marks and the warmup point.
 *
 * The design constraint is strict bit-identity with the python
 * reference loop, so the Engine keeps no private copy of the large
 * simulator state: it operates on the *live* Python containers (the
 * MSHR in-flight dict, the L2 and PHT per-set LRU dicts, the THT
 * history rows, DRAM's completion list, the prefetch queue) through the
 * CPython C API.  It owns only flat arrays: the read-only trace planes
 * (borrowed numpy buffers), the completion/commit timelines, the L1D as
 * four per-set planes, the THT running sums, and mirrored component
 * scalars (bus clocks, counters).  sync_out writes the mirrors and the
 * L1D sets touched since the last sync back to the live objects;
 * sync_in reloads the mirrors, rebuilds the MSHR heap and recomputes
 * the THT sums, so probes at a mark observe (and may modify) exactly
 * the state the reference loop would show.  All floating-point
 * arithmetic is plain IEEE double in source order — the same ops, in
 * the same order, that the CPython interpreter performs — so cycle
 * counts match the reference bit for bit.
 *
 * The paths that must run interpreted call back into Python: the L1I
 * (a lookup at every fetch-block change, the full fetch on a miss),
 * generic prefetcher training, and L1 eviction events.  The TCP (truncated-add PHT) and the null
 * prefetcher are trained in C, so a baseline or TCP run never
 * re-enters the interpreter on the data-miss path.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

typedef struct {
    double t;
    long long b;
} HeapItem;

/* Byte offsets of CacheLine's __slots__ fields in an instance. */
typedef struct {
    Py_ssize_t tag, dirty, prefetched, fill_time, last_access, signature;
} LineLayout;

typedef struct {
    PyObject_HEAD

    /* ---- read-only trace planes (borrowed buffers) ---- */
    Py_buffer idx_b, instr_b, blocks_b, tags_b, deps_b, load_b, incs_b,
        l2i_b, l2t_b, pcs_b, fb_b;
    const long long *idx, *instr, *blocks, *tags, *deps, *l2i, *l2t, *fb;
    const unsigned long long *pcs;
    const unsigned char *load;
    const double *incs;
    int have_fb;
    Py_ssize_t n;

    /* ---- engine-owned arrays ---- */
    double *comp_arr, *cmt_arr;      /* per access, length n */
    Py_ssize_t l1_sets;
    long long *l1tag;                /* -1 = invalid */
    double *l1la, *l1ft;
    unsigned char *l1dirty, *l1touch; /* touch: changed since sync_out */
    Py_ssize_t tht_rows;
    long long *thtsum;               /* running sum of each THT row */

    /* ---- live Python containers / objects (owned refs) ---- */
    PyObject *msh_inf;    /* dict: block -> completion */
    PyObject *mem_comp;   /* list[float] (mutated in place) */
    PyObject *pf_inflight;/* list[float] (mutated in place) */
    PyObject *l2_sets;    /* list[LRUSet] */
    PyObject *l1_lines;   /* list[CacheLine | None] */
    PyObject *pht_sets;   /* list[LRUSet] or NULL */
    PyObject *tht_hist;   /* list[tuple[int, ...]] or NULL */
    PyObject *resident;   /* set[int]: L1I-resident fetch blocks */
    PyObject *cacheline;  /* CacheLine class */
    LineLayout lay;
    PyObject *l1i_lookup; /* bound method */
    PyObject *ab, *db, *mab, *mdb; /* buses */
    PyObject *mshr, *memory, *hierarchy;
    PyObject *ifetch_cb, *observe_cb, *evict_cb;

    /* ---- machine scalars ---- */
    long long window;
    Py_ssize_t lsq;
    double ls_s, inv_cr;
    long long l1_lat, l2_lat, l1_beats, mem_beats, mem_lat;
    Py_ssize_t mem_maxc, msh_entries, l2_ways, pf_max, pht_ways, pht_targets;
    long long l2_shift, l2_imask, l1i_mask, seq_mask, miss_mask;
    int l2_ibits, l1i_bits, n_bits, tht_ib;
    long long pf_delay;
    double pf_busy_thr;
    int lru_pf, ideal_l2, model_icache, tcp_fast, null_fast, has_prefetcher,
        needs_evict;

    /* ---- mirrored component scalars (synced at boundaries) ---- */
    double a_nf, a_by, a_qc;
    long long a_tr;
    double d_nf, d_by, d_qc;
    long long d_tr;
    double ma_nf, ma_by, ma_qc;
    long long ma_tr;
    double md_nf, md_by, md_qc;
    long long md_tr;
    long long msh_fs, msh_mg, msh_pk;
    long long mem_acc;

    /* ---- lazy-deletion MSHR heap (C-owned; rebuilt on sync_in) ---- */
    HeapItem *heap;
    Py_ssize_t heap_len, heap_cap;

    /* ---- stat deltas (drained by take_stats) ---- */
    long long dc, ldc, stc, hc, ifc;
    long long l1m, l2a, l2h, l2m, pfo, useful, mgd, wb1, wb2;
    long long pfr, pfi, pfred, pfdq, pfdb, pfev;
    long long pfl, pfu, pfp, tl, tp, pu, pl, ph;
    long long epi_ns;
} EngineObject;

/* interned attribute names (module-lifetime) */
static PyObject *s_entries, *s_next_free, *s_busy_cycles, *s_queued_cycles,
    *s_transfers, *s_earliest, *s_full_stalls, *s_merges, *s_peak_occupancy,
    *s_completions_attr, *s_accesses, *s_pf_inflight_attr;

/* ================= small helpers ================= */

static int
heap_reserve(EngineObject *e, Py_ssize_t need)
{
    if (need <= e->heap_cap)
        return 0;
    Py_ssize_t cap = e->heap_cap ? e->heap_cap : 64;
    while (cap < need)
        cap *= 2;
    HeapItem *p = PyMem_Realloc(e->heap, cap * sizeof(HeapItem));
    if (p == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    e->heap = p;
    e->heap_cap = cap;
    return 0;
}

static int
heap_push(EngineObject *e, double t, long long b)
{
    if (heap_reserve(e, e->heap_len + 1) < 0)
        return -1;
    Py_ssize_t pos = e->heap_len++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (e->heap[parent].t <= t)
            break;
        e->heap[pos] = e->heap[parent];
        pos = parent;
    }
    e->heap[pos].t = t;
    e->heap[pos].b = b;
    return 0;
}

static void
heap_popmin(EngineObject *e, HeapItem *out)
{
    *out = e->heap[0];
    Py_ssize_t len = --e->heap_len;
    if (len == 0)
        return;
    HeapItem last = e->heap[len];
    Py_ssize_t pos = 0;
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= len)
            break;
        if (child + 1 < len && e->heap[child + 1].t < e->heap[child].t)
            child += 1;
        if (e->heap[child].t >= last.t)
            break;
        e->heap[pos] = e->heap[child];
        pos = child;
    }
    e->heap[pos] = last;
}

/* first key of a dict (borrowed ref), NULL if empty */
static PyObject *
dict_first_key(PyObject *d)
{
    PyObject *k, *v;
    Py_ssize_t pos = 0;
    if (PyDict_Next(d, &pos, &k, &v))
        return k;
    return NULL;
}

static double
attr_double(PyObject *obj, PyObject *name, int *err)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL) {
        *err = 1;
        return 0.0;
    }
    double d = PyFloat_AsDouble(v);
    Py_DECREF(v);
    if (d == -1.0 && PyErr_Occurred()) {
        *err = 1;
        return 0.0;
    }
    return d;
}

static long long
attr_ll(PyObject *obj, PyObject *name, int *err)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL) {
        *err = 1;
        return 0;
    }
    long long r = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (r == -1 && PyErr_Occurred()) {
        *err = 1;
        return 0;
    }
    return r;
}

static int
set_attr_double(PyObject *obj, PyObject *name, double val)
{
    PyObject *v = PyFloat_FromDouble(val);
    if (v == NULL)
        return -1;
    int r = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return r;
}

static int
set_attr_ll(PyObject *obj, PyObject *name, long long val)
{
    PyObject *v = PyLong_FromLongLong(val);
    if (v == NULL)
        return -1;
    int r = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return r;
}

static int
list_append_double(PyObject *list, double val)
{
    PyObject *v = PyFloat_FromDouble(val);
    if (v == NULL)
        return -1;
    int r = PyList_Append(list, v);
    Py_DECREF(v);
    return r;
}

/* `msh_inf.get(b) == t` with the reference's equality semantics */
static int
mshr_match(EngineObject *e, long long b, double t)
{
    PyObject *bo = PyLong_FromLongLong(b);
    if (bo == NULL)
        return -1;
    PyObject *val = PyDict_GetItemWithError(e->msh_inf, bo);
    Py_DECREF(bo);
    if (val == NULL) {
        if (PyErr_Occurred())
            PyErr_Clear();
        return 0;
    }
    double dv = PyFloat_AsDouble(val);
    if (dv == -1.0 && PyErr_Occurred()) {
        PyErr_Clear();
        return 0;
    }
    return dv == t;
}

/* `if msh_inf.get(b) == t: del msh_inf[b]` */
static int
mshr_del_if_match(EngineObject *e, long long b, double t)
{
    PyObject *bo = PyLong_FromLongLong(b);
    if (bo == NULL)
        return -1;
    PyObject *val = PyDict_GetItemWithError(e->msh_inf, bo);
    if (val != NULL) {
        double dv = PyFloat_AsDouble(val);
        if (dv == -1.0 && PyErr_Occurred())
            PyErr_Clear();
        else if (dv == t) {
            if (PyDict_DelItem(e->msh_inf, bo) < 0) {
                Py_DECREF(bo);
                return -1;
            }
        }
    }
    else if (PyErr_Occurred()) {
        Py_DECREF(bo);
        return -1;
    }
    Py_DECREF(bo);
    return 0;
}

/* delete the sorted prefix of mem_comp with value <= bound (the
 * reference's `[x for x in mem_comp if x > bound]` after a sort) */
static int
memcomp_prefix_filter(EngineObject *e, double bound)
{
    Py_ssize_t len = PyList_GET_SIZE(e->mem_comp);
    Py_ssize_t k = 0;
    while (k < len) {
        double v = PyFloat_AsDouble(PyList_GET_ITEM(e->mem_comp, k));
        if (v == -1.0 && PyErr_Occurred())
            return -1;
        if (v > bound)
            break;
        k++;
    }
    if (k == 0)
        return 0;
    return PyList_SetSlice(e->mem_comp, 0, k, NULL);
}

/* ================= cache lines =================
 *
 * CacheLine is a __slots__ class, so each field lives at a fixed
 * offset that the class's member descriptors publish.  The engine
 * reads, writes and allocates lines through those offsets: the miss
 * path never runs CacheLine.__init__ or an attribute lookup. */

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

static int
layout_field(PyObject *cls, const char *name, Py_ssize_t *out)
{
    PyObject *d = PyObject_GetAttrString(cls, name);
    if (d == NULL)
        return -1;
    int ok = Py_IS_TYPE(d, &PyMemberDescr_Type);
    if (ok) {
        PyMemberDef *m = ((PyMemberDescrObject *)d)->d_member;
        ok = m->type == T_OBJECT_EX && !(m->flags & READONLY);
        *out = m->offset;
    }
    Py_DECREF(d);
    if (!ok) {
        PyErr_Format(PyExc_TypeError, "CacheLine.%s is not a writable slot",
                     name);
        return -1;
    }
    return 0;
}

static int
layout_init(PyObject *cls, LineLayout *lay)
{
    if (!PyType_Check(cls)) {
        PyErr_SetString(PyExc_TypeError, "cacheline must be a class");
        return -1;
    }
    return layout_field(cls, "tag", &lay->tag) < 0 ||
                   layout_field(cls, "dirty", &lay->dirty) < 0 ||
                   layout_field(cls, "prefetched", &lay->prefetched) < 0 ||
                   layout_field(cls, "fill_time", &lay->fill_time) < 0 ||
                   layout_field(cls, "last_access", &lay->last_access) < 0 ||
                   layout_field(cls, "signature", &lay->signature) < 0
               ? -1
               : 0;
}

/* CacheLine(tag, fill, dirty=dirty, prefetched=prefetched), new ref */
static PyObject *
line_new(EngineObject *e, long long tag, double fill, int dirty,
         int prefetched)
{
    PyTypeObject *tp = (PyTypeObject *)e->cacheline;
    PyObject *obj = tp->tp_alloc(tp, 0);
    if (obj == NULL)
        return NULL;
    PyObject *t = PyLong_FromLongLong(tag);
    PyObject *f = PyFloat_FromDouble(fill);
    PyObject *sig = PyLong_FromLong(0);
    if (t == NULL || f == NULL || sig == NULL) {
        Py_XDECREF(t);
        Py_XDECREF(f);
        Py_XDECREF(sig);
        Py_DECREF(obj);
        return NULL;
    }
    SLOT(obj, e->lay.tag) = t;
    Py_INCREF(dirty ? Py_True : Py_False);
    SLOT(obj, e->lay.dirty) = dirty ? Py_True : Py_False;
    Py_INCREF(prefetched ? Py_True : Py_False);
    SLOT(obj, e->lay.prefetched) = prefetched ? Py_True : Py_False;
    Py_INCREF(f);
    SLOT(obj, e->lay.fill_time) = f;
    SLOT(obj, e->lay.last_access) = f;
    SLOT(obj, e->lay.signature) = sig;
    return obj;
}

/* borrowed field of a line; NULL + error when the line is not a
 * CacheLine or the field was never set */
static PyObject *
line_get(EngineObject *e, PyObject *line, Py_ssize_t off)
{
    if (Py_TYPE(line) != (PyTypeObject *)e->cacheline) {
        PyErr_Format(PyExc_TypeError, "expected a CacheLine, got %R", line);
        return NULL;
    }
    PyObject *v = SLOT(line, off);
    if (v == NULL)
        PyErr_SetString(PyExc_AttributeError, "CacheLine field unset");
    return v;
}

static int
line_true(EngineObject *e, PyObject *line, Py_ssize_t off)
{
    PyObject *v = line_get(e, line, off);
    return v == NULL ? -1 : PyObject_IsTrue(v);
}

static double
line_double(EngineObject *e, PyObject *line, Py_ssize_t off, int *err)
{
    PyObject *v = line_get(e, line, off);
    double d = v == NULL ? -1.0 : PyFloat_AsDouble(v);
    if (d == -1.0 && PyErr_Occurred())
        *err = 1;
    return d;
}

/* steals `val` */
static int
line_set(EngineObject *e, PyObject *line, Py_ssize_t off, PyObject *val)
{
    if (val == NULL)
        return -1;
    if (Py_TYPE(line) != (PyTypeObject *)e->cacheline) {
        Py_DECREF(val);
        PyErr_Format(PyExc_TypeError, "expected a CacheLine, got %R", line);
        return -1;
    }
    Py_XSETREF(SLOT(line, off), val);
    return 0;
}

static int
line_set_bool(EngineObject *e, PyObject *line, Py_ssize_t off, int flag)
{
    PyObject *v = flag ? Py_True : Py_False;
    Py_INCREF(v);
    return line_set(e, line, off, v);
}

/* ================= boundary sync ================= */

static int
sync_out_internal(EngineObject *e)
{
    if (set_attr_double(e->ab, s_next_free, e->a_nf) < 0 ||
        set_attr_double(e->ab, s_busy_cycles, e->a_by) < 0 ||
        set_attr_double(e->ab, s_queued_cycles, e->a_qc) < 0 ||
        set_attr_ll(e->ab, s_transfers, e->a_tr) < 0)
        return -1;
    if (set_attr_double(e->db, s_next_free, e->d_nf) < 0 ||
        set_attr_double(e->db, s_busy_cycles, e->d_by) < 0 ||
        set_attr_double(e->db, s_queued_cycles, e->d_qc) < 0 ||
        set_attr_ll(e->db, s_transfers, e->d_tr) < 0)
        return -1;
    if (set_attr_double(e->mab, s_next_free, e->ma_nf) < 0 ||
        set_attr_double(e->mab, s_busy_cycles, e->ma_by) < 0 ||
        set_attr_double(e->mab, s_queued_cycles, e->ma_qc) < 0 ||
        set_attr_ll(e->mab, s_transfers, e->ma_tr) < 0)
        return -1;
    if (set_attr_double(e->mdb, s_next_free, e->md_nf) < 0 ||
        set_attr_double(e->mdb, s_busy_cycles, e->md_by) < 0 ||
        set_attr_double(e->mdb, s_queued_cycles, e->md_qc) < 0 ||
        set_attr_ll(e->mdb, s_transfers, e->md_tr) < 0)
        return -1;
    /* mshr._earliest = min(inflight.values(), default=inf) */
    double earliest = Py_HUGE_VAL;
    PyObject *k, *v;
    Py_ssize_t pos = 0;
    while (PyDict_Next(e->msh_inf, &pos, &k, &v)) {
        double dv = PyFloat_AsDouble(v);
        if (dv == -1.0 && PyErr_Occurred())
            return -1;
        if (dv < earliest)
            earliest = dv;
    }
    if (set_attr_double(e->mshr, s_earliest, earliest) < 0 ||
        set_attr_ll(e->mshr, s_full_stalls, e->msh_fs) < 0 ||
        set_attr_ll(e->mshr, s_merges, e->msh_mg) < 0 ||
        set_attr_ll(e->mshr, s_peak_occupancy, e->msh_pk) < 0)
        return -1;
    if (PyObject_SetAttr(e->memory, s_completions_attr, e->mem_comp) < 0 ||
        set_attr_ll(e->memory, s_accesses, e->mem_acc) < 0)
        return -1;
    if (PyObject_SetAttr(e->hierarchy, s_pf_inflight_attr, e->pf_inflight) < 0)
        return -1;
    return 0;
}

static int
sync_in_internal(EngineObject *e)
{
    int err = 0;
    e->a_nf = attr_double(e->ab, s_next_free, &err);
    e->a_by = attr_double(e->ab, s_busy_cycles, &err);
    e->a_qc = attr_double(e->ab, s_queued_cycles, &err);
    e->a_tr = attr_ll(e->ab, s_transfers, &err);
    e->d_nf = attr_double(e->db, s_next_free, &err);
    e->d_by = attr_double(e->db, s_busy_cycles, &err);
    e->d_qc = attr_double(e->db, s_queued_cycles, &err);
    e->d_tr = attr_ll(e->db, s_transfers, &err);
    e->ma_nf = attr_double(e->mab, s_next_free, &err);
    e->ma_by = attr_double(e->mab, s_busy_cycles, &err);
    e->ma_qc = attr_double(e->mab, s_queued_cycles, &err);
    e->ma_tr = attr_ll(e->mab, s_transfers, &err);
    e->md_nf = attr_double(e->mdb, s_next_free, &err);
    e->md_by = attr_double(e->mdb, s_busy_cycles, &err);
    e->md_qc = attr_double(e->mdb, s_queued_cycles, &err);
    e->md_tr = attr_ll(e->mdb, s_transfers, &err);
    e->msh_fs = attr_ll(e->mshr, s_full_stalls, &err);
    e->msh_mg = attr_ll(e->mshr, s_merges, &err);
    e->msh_pk = attr_ll(e->mshr, s_peak_occupancy, &err);
    e->mem_acc = attr_ll(e->memory, s_accesses, &err);
    if (err)
        return -1;
    /* The Python side rebinds these lists (MainMemory.fetch filters
     * by rebuilding); chase the current objects. */
    PyObject *mc = PyObject_GetAttr(e->memory, s_completions_attr);
    if (mc == NULL)
        return -1;
    Py_XSETREF(e->mem_comp, mc);
    PyObject *pfq = PyObject_GetAttr(e->hierarchy, s_pf_inflight_attr);
    if (pfq == NULL)
        return -1;
    Py_XSETREF(e->pf_inflight, pfq);
    /* rebuild the lazy-deletion heap from the live dict */
    Py_ssize_t sz = PyDict_GET_SIZE(e->msh_inf);
    if (heap_reserve(e, sz ? sz : 1) < 0)
        return -1;
    e->heap_len = 0;
    PyObject *k, *v;
    Py_ssize_t pos = 0;
    while (PyDict_Next(e->msh_inf, &pos, &k, &v)) {
        double dv = PyFloat_AsDouble(v);
        if (dv == -1.0 && PyErr_Occurred())
            return -1;
        long long b = PyLong_AsLongLong(k);
        if (b == -1 && PyErr_Occurred())
            return -1;
        if (heap_push(e, dv, b) < 0)
            return -1;
    }
    return 0;
}

/* Write the L1D sets changed since the last call back to the live
 * line list: a changed tag installs a fresh CacheLine, otherwise the
 * resident line's timestamps and dirty bit are updated in place. */
static int
l1_sync_out(EngineObject *e)
{
    for (Py_ssize_t s = 0; s < e->l1_sets; s++) {
        if (!e->l1touch[s])
            continue;
        e->l1touch[s] = 0;
        long long t = e->l1tag[s];
        if (t < 0)
            continue;
        PyObject *line = PyList_GET_ITEM(e->l1_lines, s); /* borrowed */
        int same = 0;
        if (line != Py_None) {
            PyObject *lt = line_get(e, line, e->lay.tag);
            if (lt == NULL)
                return -1;
            long long ltv = PyLong_AsLongLong(lt);
            if (ltv == -1 && PyErr_Occurred())
                return -1;
            same = ltv == t;
        }
        if (!same) {
            line = line_new(e, t, e->l1ft[s], e->l1dirty[s], 0);
            if (line == NULL || PyList_SetItem(e->l1_lines, s, line) < 0)
                return -1; /* SetItem stole the new line */
        }
        else {
            /* hits only move last_access; rewrite the rest on change */
            int err = 0;
            double ft = line_double(e, line, e->lay.fill_time, &err);
            int dirty = line_true(e, line, e->lay.dirty);
            if (err || dirty < 0)
                return -1;
            if ((ft != e->l1ft[s] &&
                 line_set(e, line, e->lay.fill_time,
                          PyFloat_FromDouble(e->l1ft[s])) < 0) ||
                (dirty != e->l1dirty[s] &&
                 line_set_bool(e, line, e->lay.dirty, e->l1dirty[s]) < 0))
                return -1;
        }
        if (line_set(e, line, e->lay.last_access,
                     PyFloat_FromDouble(e->l1la[s])) < 0)
            return -1;
    }
    return 0;
}

/* Load the L1D planes from the live line list (construction only). */
static int
l1_load(EngineObject *e)
{
    for (Py_ssize_t s = 0; s < e->l1_sets; s++) {
        PyObject *line = PyList_GET_ITEM(e->l1_lines, s);
        e->l1touch[s] = 0;
        if (line == Py_None) {
            e->l1tag[s] = -1;
            e->l1la[s] = 0.0;
            e->l1ft[s] = 0.0;
            e->l1dirty[s] = 0;
            continue;
        }
        int err = 0;
        PyObject *lt = line_get(e, line, e->lay.tag);
        if (lt == NULL)
            return -1;
        e->l1tag[s] = PyLong_AsLongLong(lt);
        if (e->l1tag[s] == -1 && PyErr_Occurred())
            return -1;
        e->l1la[s] = line_double(e, line, e->lay.last_access, &err);
        e->l1ft[s] = line_double(e, line, e->lay.fill_time, &err);
        if (err)
            return -1;
        int d = line_true(e, line, e->lay.dirty);
        if (d < 0)
            return -1;
        e->l1dirty[s] = (unsigned char)d;
    }
    return 0;
}

/* Recompute every THT row's running tag sum from the live rows. */
static int
thtsum_reload(EngineObject *e)
{
    for (Py_ssize_t r = 0; r < e->tht_rows; r++) {
        PyObject *row = PyList_GET_ITEM(e->tht_hist, r);
        Py_ssize_t k = PyTuple_GET_SIZE(row);
        long long sum = 0;
        for (Py_ssize_t q = 0; q < k; q++) {
            long long x = PyLong_AsLongLong(PyTuple_GET_ITEM(row, q));
            if (x == -1 && PyErr_Occurred())
                return -1;
            sum += x;
        }
        e->thtsum[r] = sum;
    }
    return 0;
}

/* ================= prefetch issue ================= */

/* MainMemory.fetch, inlined: returns the data-ready time (NaN + error
 * set on failure). */
static double
memory_fetch(EngineObject *e, double t)
{
    double st = t > e->ma_nf ? t : e->ma_nf;
    e->ma_nf = st + 1.0;
    e->ma_by += 1.0;
    e->ma_qc += st - t;
    e->ma_tr += 1;
    double start = st + 1.0;
    if (PyList_GET_SIZE(e->mem_comp) >= e->mem_maxc) {
        if (PyList_Sort(e->mem_comp) < 0)
            return Py_NAN;
        double first = PyFloat_AsDouble(PyList_GET_ITEM(e->mem_comp, 0));
        if (first == -1.0 && PyErr_Occurred())
            return Py_NAN;
        if (first > start)
            start = first;
        if (memcomp_prefix_filter(e, start) < 0)
            return Py_NAN;
    }
    double ready = start + (double)e->mem_lat;
    st = ready > e->md_nf ? ready : e->md_nf;
    e->md_nf = st + (double)e->mem_beats;
    e->md_by += (double)e->mem_beats;
    e->md_qc += st - ready;
    e->md_tr += 1;
    double done = st + (double)e->mem_beats;
    if (list_append_double(e->mem_comp, done) < 0)
        return Py_NAN;
    e->mem_acc++;
    return done;
}

/* Account for an L2 victim: unused-prefetch eviction and dirty
 * writeback over the memory data channel at time t. */
static int
l2_victim(EngineObject *e, PyObject *victim, double t)
{
    int vpf = line_true(e, victim, e->lay.prefetched);
    if (vpf < 0)
        return -1;
    if (vpf)
        e->pfev++;
    int vd = line_true(e, victim, e->lay.dirty);
    if (vd < 0)
        return -1;
    if (vd) {
        e->wb2++;
        double st = t > e->md_nf ? t : e->md_nf;
        e->md_nf = st + (double)e->mem_beats;
        e->md_by += (double)e->mem_beats;
        e->md_qc += st - t;
        e->md_tr += 1;
    }
    return 0;
}

/* Pop the LRU entry of a full set dict; returns the victim line (new
 * ref) or NULL with an error set. */
static PyObject *
evict_lru(PyObject *entries)
{
    PyObject *fk = dict_first_key(entries);
    Py_INCREF(fk);
    PyObject *victim = PyDict_GetItem(entries, fk);
    Py_XINCREF(victim);
    int r = PyDict_DelItem(entries, fk);
    Py_DECREF(fk);
    if (r < 0) {
        Py_XDECREF(victim);
        return NULL;
    }
    return victim;
}

/* MemoryHierarchy.issue_prefetch for an L2-only request. */
static int
issue_pf_c(EngineObject *e, long long pb, double t)
{
    e->pfr++;
    long long l2b = pb >> e->l2_shift;
    long long i2 = l2b & e->l2_imask;
    long long t2 = l2b >> e->l2_ibits;
    PyObject *lru = PyList_GET_ITEM(e->l2_sets, i2); /* borrowed */
    PyObject *t2o = NULL, *entries = NULL, *newline = NULL, *victim = NULL;
    int rc = -1;
    /* read per use: put_lru rebinds a set's dict */
    entries = PyObject_GetAttr(lru, s_entries);
    if (entries == NULL)
        goto done;
    t2o = PyLong_FromLongLong(t2);
    if (t2o == NULL)
        goto done;
    PyObject *line = PyDict_GetItemWithError(entries, t2o);
    if (line != NULL) {
        e->pfred++;
        rc = 0;
        goto done;
    }
    if (PyErr_Occurred())
        goto done;
    /* order-preserving expiry filter, in place (identity-stable) */
    Py_ssize_t ln = PyList_GET_SIZE(e->pf_inflight);
    if (ln) {
        PyObject *keep = PyList_New(0);
        if (keep == NULL)
            goto done;
        for (Py_ssize_t q = 0; q < ln; q++) {
            PyObject *x = PyList_GET_ITEM(e->pf_inflight, q);
            double xv = PyFloat_AsDouble(x);
            if ((xv == -1.0 && PyErr_Occurred()) ||
                (xv > t && PyList_Append(keep, x) < 0)) {
                Py_DECREF(keep);
                goto done;
            }
        }
        int r = PyList_SetSlice(e->pf_inflight, 0, ln, keep);
        Py_DECREF(keep);
        if (r < 0)
            goto done;
    }
    if (PyList_GET_SIZE(e->pf_inflight) >= e->pf_max) {
        e->pfdq++;
        rc = 0;
        goto done;
    }
    if (e->md_nf - ((t + 1.0) + (double)e->mem_lat) > e->pf_busy_thr) {
        e->pfdb++;
        rc = 0;
        goto done;
    }
    double fetched = memory_fetch(e, t + (double)e->l2_lat);
    if (PyErr_Occurred())
        goto done;
    if (list_append_double(e->pf_inflight, fetched) < 0)
        goto done;
    e->pfi++;
    /* _fill_l2, prefetch insert */
    newline = line_new(e, t2, fetched, 0, 1);
    if (newline == NULL)
        goto done;
    if (PyDict_GET_SIZE(entries) >= e->l2_ways) {
        victim = evict_lru(entries);
        if (victim == NULL && PyErr_Occurred())
            goto done;
    }
    if (e->lru_pf) {
        /* LRUSet.put_lru rebinds: {t2: line, **entries} */
        PyObject *nd = PyDict_New();
        if (nd == NULL)
            goto done;
        if (PyDict_SetItem(nd, t2o, newline) < 0 ||
            PyDict_Merge(nd, entries, 1) < 0 ||
            PyObject_SetAttr(lru, s_entries, nd) < 0) {
            Py_DECREF(nd);
            goto done;
        }
        Py_DECREF(nd);
    }
    else if (PyDict_SetItem(entries, t2o, newline) < 0)
        goto done;
    if (victim != NULL && l2_victim(e, victim, fetched) < 0)
        goto done;
    rc = 0;
done:
    Py_XDECREF(victim);
    Py_XDECREF(newline);
    Py_XDECREF(t2o);
    Py_XDECREF(entries);
    return rc;
}

static int tcp_train(EngineObject *e, long long s, long long tag,
                     long long block, double v);

/* ================= the demand-miss path ================= */

/* MSHRFile.acquire: the earliest time a new miss may allocate an
 * entry (reaping only when the file is full).  -1.0 + error on
 * failure (times are never negative). */
static double
mshr_acquire(EngineObject *e, double v)
{
    if (PyDict_GET_SIZE(e->msh_inf) < e->msh_entries)
        return v;
    while (e->heap_len && e->heap[0].t <= v) {
        HeapItem it;
        heap_popmin(e, &it);
        if (mshr_del_if_match(e, it.b, it.t) < 0)
            return -1.0;
    }
    if (PyDict_GET_SIZE(e->msh_inf) < e->msh_entries)
        return v;
    double start;
    for (;;) {
        if (e->heap_len == 0) {
            PyErr_SetString(PyExc_RuntimeError,
                            "MSHR heap drained while the file is full");
            return -1.0;
        }
        HeapItem top = e->heap[0];
        int m = mshr_match(e, top.b, top.t);
        if (m < 0)
            return -1.0;
        if (m) {
            start = top.t;
            break;
        }
        HeapItem dump;
        heap_popmin(e, &dump);
    }
    e->msh_fs++;
    while (e->heap_len && e->heap[0].t <= start) {
        HeapItem it;
        heap_popmin(e, &it);
        if (mshr_del_if_match(e, it.b, it.t) < 0)
            return -1.0;
    }
    return start;
}

/* The L2 demand access for access i arriving at `arrival`: hit (LRU
 * promote, prefetch-bit consume) or miss (DRAM fetch + fill).
 * Returns the data-ready time, -1.0 + error on failure. */
static double
l2_demand(EngineObject *e, Py_ssize_t i, double arrival)
{
    e->l2a++;
    PyObject *lru = PyList_GET_ITEM(e->l2_sets, e->l2i[i]); /* borrowed */
    PyObject *entries = NULL, *t2o = NULL, *line = NULL, *victim = NULL;
    double ready = -1.0;
    entries = PyObject_GetAttr(lru, s_entries);
    if (entries == NULL)
        goto done;
    t2o = PyLong_FromLongLong(e->l2t[i]);
    if (t2o == NULL)
        goto done;
    line = PyDict_GetItemWithError(entries, t2o);
    if (line == NULL && PyErr_Occurred())
        goto done;
    if (line != NULL) {
        Py_INCREF(line);
        /* LRU promote: del + reinsert */
        if (PyDict_DelItem(entries, t2o) < 0 ||
            PyDict_SetItem(entries, t2o, line) < 0 ||
            line_set(e, line, e->lay.last_access,
                     PyFloat_FromDouble(arrival)) < 0)
            goto done;
    }
    if (line != NULL || e->ideal_l2) {
        e->l2h++;
        double data_ready = arrival + (double)e->l2_lat;
        if (line != NULL) {
            int is_pf = line_true(e, line, e->lay.prefetched);
            if (is_pf < 0)
                goto done;
            if (is_pf) {
                if (line_set_bool(e, line, e->lay.prefetched, 0) < 0)
                    goto done;
                e->pfo++;
                e->useful++;
            }
            int err = 0;
            double ft2 = line_double(e, line, e->lay.fill_time, &err);
            if (err)
                goto done;
            if (ft2 > arrival && ft2 > data_ready)
                data_ready = ft2;
        }
        ready = data_ready;
        goto done;
    }
    /* L2 miss: MainMemory.fetch + _fill_l2, inlined */
    e->l2m++;
    double fetched = memory_fetch(e, arrival + (double)e->l2_lat);
    if (PyErr_Occurred())
        goto done;
    line = line_new(e, e->l2t[i], fetched, 0, 0);
    if (line == NULL)
        goto done;
    if (PyDict_GET_SIZE(entries) >= e->l2_ways) {
        victim = evict_lru(entries);
        if (victim == NULL && PyErr_Occurred())
            goto done;
    }
    if (PyDict_SetItem(entries, t2o, line) < 0)
        goto done;
    if (victim != NULL && l2_victim(e, victim, fetched) < 0)
        goto done;
    ready = fetched;
done:
    Py_XDECREF(victim);
    Py_XDECREF(line);
    Py_XDECREF(t2o);
    Py_XDECREF(entries);
    return ready;
}

/* Prefetcher training for one primary miss. */
static int
train(EngineObject *e, Py_ssize_t i, long long s, long long tag,
      long long block, int load, double v)
{
    if (e->tcp_fast)
        return tcp_train(e, s, tag, block, v);
    if (e->null_fast) {
        e->pfl++; /* NullPrefetcher.observe_miss */
        return 0;
    }
    if (!e->has_prefetcher)
        return 0;
    PyObject *reqs = PyObject_CallFunction(
        e->observe_cb, "LLLKOd", s, tag, block, e->pcs[i],
        load ? Py_False : Py_True, v);
    if (reqs == NULL)
        return -1;
    int rc = 0;
    if (reqs != Py_None) {
        double launch = v + (double)e->pf_delay;
        Py_ssize_t nr = PyList_GET_SIZE(reqs);
        for (Py_ssize_t q = 0; q < nr && rc == 0; q++) {
            long long pb = PyLong_AsLongLong(PyList_GET_ITEM(reqs, q));
            if (pb == -1 && PyErr_Occurred())
                rc = -1;
            else
                rc = issue_pf_c(e, pb, launch);
        }
    }
    Py_DECREF(reqs);
    return rc;
}

/* MemoryHierarchy.access_time for an L1D miss of access i issued at
 * v.  Returns the data completion time, -1.0 + error on failure. */
static double
demand_miss(EngineObject *e, Py_ssize_t i, long long s, long long tag,
            int load, double v)
{
    e->l1m++;
    long long block = e->blocks[i];
    double comp = -1.0;
    PyObject *blocko = PyLong_FromLongLong(block);
    if (blocko == NULL)
        return -1.0;
    PyObject *merged = PyDict_GetItemWithError(e->msh_inf, blocko);
    if (merged == NULL && PyErr_Occurred())
        goto done;
    if (merged != NULL) {
        double mval = PyFloat_AsDouble(merged);
        if (mval == -1.0 && PyErr_Occurred())
            goto done;
        if (mval > v) {
            /* MSHR merge: no L1 fill, no training */
            e->msh_mg++;
            e->mgd++;
            comp = mval;
            goto done;
        }
    }
    double start = mshr_acquire(e, v);
    if (start < 0.0)
        goto done;
    /* L1/L2 address channel: one command beat */
    double t_ = start + (double)e->l1_lat;
    double st_ = t_ > e->a_nf ? t_ : e->a_nf;
    e->a_nf = st_ + 1.0;
    e->a_by += 1.0;
    e->a_qc += st_ - t_;
    e->a_tr += 1;
    double data_ready = l2_demand(e, i, st_ + 1.0);
    if (data_ready < 0.0)
        goto done;
    /* data return over the L1/L2 data channel */
    st_ = data_ready > e->d_nf ? data_ready : e->d_nf;
    e->d_nf = st_ + (double)e->l1_beats;
    e->d_by += (double)e->l1_beats;
    e->d_qc += st_ - data_ready;
    e->d_tr += 1;
    double fill = st_ + (double)e->l1_beats;
    /* MSHR register (reap at now, then insert) */
    while (e->heap_len && e->heap[0].t <= v) {
        HeapItem it;
        heap_popmin(e, &it);
        if (mshr_del_if_match(e, it.b, it.t) < 0)
            goto done;
    }
    PyObject *co = PyFloat_FromDouble(fill);
    if (co == NULL)
        goto done;
    int r = PyDict_SetItem(e->msh_inf, blocko, co);
    Py_DECREF(co);
    if (r < 0 || heap_push(e, fill, block) < 0)
        goto done;
    Py_ssize_t sz = PyDict_GET_SIZE(e->msh_inf);
    if (sz > e->msh_pk)
        e->msh_pk = sz;
    /* L1 fill on the planes (+ victim writeback) */
    e->l1touch[s] = 1;
    long long vt = e->l1tag[s];
    if (vt == tag) {
        e->l1la[s] = fill;
        if (!load)
            e->l1dirty[s] = 1;
    }
    else {
        int vd = e->l1dirty[s];
        double old_ft = e->l1ft[s];
        double old_la = e->l1la[s];
        e->l1tag[s] = tag;
        e->l1ft[s] = fill;
        e->l1la[s] = fill;
        e->l1dirty[s] = load ? 0 : 1;
        if (vt >= 0) {
            if (vd) {
                e->wb1++;
                st_ = fill > e->d_nf ? fill : e->d_nf;
                e->d_nf = st_ + (double)e->l1_beats;
                e->d_by += (double)e->l1_beats;
                e->d_qc += st_ - fill;
                e->d_tr += 1;
            }
            if (e->needs_evict) {
                PyObject *res = PyObject_CallFunction(
                    e->evict_cb, "LLddd", s, vt, fill, old_ft, old_la);
                if (res == NULL)
                    goto done;
                Py_DECREF(res);
            }
        }
    }
    if (train(e, i, s, tag, block, load, v) < 0)
        goto done;
    comp = fill;
done:
    Py_DECREF(blocko);
    return comp;
}

/* ================= the core loop ================= */

/* Instruction fetch for a new fetch block at dispatch time nd: an
 * L1I-resident block is a plain lookup, anything else runs the
 * interpreted fetch with component state synced around the call.
 * Adds the fetch penalty to *nd; -1 on error. */
static int
fetch_block(EngineObject *e, Py_ssize_t i, long long fb, double *nd)
{
    PyObject *fbo = PyLong_FromLongLong(fb);
    if (fbo == NULL)
        return -1;
    int res = PySet_Contains(e->resident, fbo);
    Py_DECREF(fbo);
    if (res < 0)
        return -1;
    if (res) {
        e->ifc++;
        PyObject *r = PyObject_CallFunction(
            e->l1i_lookup, "LLOd", fb & e->l1i_mask, fb >> e->l1i_bits,
            Py_False, *nd);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
    if (sync_out_internal(e) < 0)
        return -1;
    PyObject *r = PyObject_CallFunction(e->ifetch_cb, "dKL", *nd, e->pcs[i],
                                        fb);
    if (r == NULL)
        return -1;
    double pen = PyFloat_AsDouble(r);
    Py_DECREF(r);
    if (pen == -1.0 && PyErr_Occurred())
        return -1;
    if (sync_in_internal(e) < 0)
        return -1;
    if (pen > 0.0)
        *nd += pen;
    return 0;
}

static PyObject *
Engine_step(EngineObject *e, PyObject *args)
{
    Py_ssize_t i, stop, P;
    double li, lc, nd;
    long long last_fb;
    if (!PyArg_ParseTuple(args, "nndddnL", &i, &stop, &li, &lc, &nd, &P,
                          &last_fb))
        return NULL;
    if (i < 0 || stop > e->n || i > stop) {
        PyErr_SetString(PyExc_ValueError, "step range out of bounds");
        return NULL;
    }
    struct timespec ts0, ts1;
    clock_gettime(CLOCK_MONOTONIC, &ts0);

    for (; i < stop; i++) {
        /* ---- dispatch: frontend rate + window/LSQ occupancy ---- */
        nd += e->incs[i];
        long long floor_ = e->instr[i] - e->window;
        while (P < i) {
            if (e->instr[P] > floor_)
                break;
            double c = e->cmt_arr[P];
            if (c > nd)
                nd = c;
            P++;
        }
        if (i >= e->lsq) {
            double c = e->cmt_arr[i - e->lsq];
            if (c > nd)
                nd = c;
        }
        if (e->model_icache && e->fb[i] != last_fb) {
            last_fb = e->fb[i];
            if (fetch_block(e, i, last_fb, &nd) < 0)
                return NULL;
        }
        /* ---- issue: LS-unit rate + address dependence ---- */
        double v = li + e->ls_s;
        if (nd > v)
            v = nd;
        long long dep = e->deps[i];
        if (dep) {
            Py_ssize_t j = i - (Py_ssize_t)dep;
            if (j < 0)
                j += e->n; /* python negative indexing */
            double c = e->comp_arr[j];
            if (c > v)
                v = c;
        }
        li = v;
        /* ---- memory access ---- */
        long long s = e->idx[i];
        long long tag = e->tags[i];
        int load = e->load[i];
        double comp;
        e->dc++;
        if (load)
            e->ldc++;
        else
            e->stc++;
        if (e->l1tag[s] == tag) {
            /* direct-mapped hit */
            e->hc++;
            e->l1la[s] = v;
            e->l1touch[s] = 1;
            if (load)
                comp = v + (double)e->l1_lat;
            else {
                e->l1dirty[s] = 1;
                comp = v + 1.0;
            }
        }
        else {
            comp = demand_miss(e, i, s, tag, load, v);
            if (comp < 0.0)
                return NULL;
            if (!load)
                comp = v + 1.0;
        }
        /* ---- in-order commit ---- */
        e->comp_arr[i] = comp;
        double m = lc + e->inv_cr;
        if (comp > m)
            m = comp;
        lc = m;
        e->cmt_arr[i] = m;
    }

    clock_gettime(CLOCK_MONOTONIC, &ts1);
    e->epi_ns += (long long)(ts1.tv_sec - ts0.tv_sec) * 1000000000LL +
                 (ts1.tv_nsec - ts0.tv_nsec);
    return Py_BuildValue("dddnL", li, lc, nd, P, last_fb);
}

/* ================= TCP fast-path training ================= */

static int
tcp_train(EngineObject *e, long long s, long long tag, long long block,
          double v)
{
    e->pfl++;
    e->tl++;
    PyObject *old_seq = PyList_GET_ITEM(e->tht_hist, s); /* borrowed */
    long long old_sum = e->thtsum[s];
    /* PHT update: learn old_seq -> tag */
    e->pu++;
    long long hi = old_sum & e->seq_mask;
    long long pidx =
        e->n_bits == 0 ? hi : ((hi << e->n_bits) | (s & e->miss_mask));
    PyObject *lru = PyList_GET_ITEM(e->pht_sets, pidx);
    PyObject *entries = PyObject_GetAttr(lru, s_entries);
    if (entries == NULL)
        return -1;
    Py_ssize_t klen = PyTuple_GET_SIZE(old_seq);
    PyObject *et = PyTuple_GET_ITEM(old_seq, klen - 1); /* borrowed */
    PyObject *succ = PyDict_GetItemWithError(entries, et);
    if (succ == NULL && PyErr_Occurred()) {
        Py_DECREF(entries);
        return -1;
    }
    PyObject *tago = PyLong_FromLongLong(tag);
    if (tago == NULL) {
        Py_DECREF(entries);
        return -1;
    }
    if (succ == NULL) {
        if (PyDict_GET_SIZE(entries) >= e->pht_ways) {
            PyObject *fk = dict_first_key(entries);
            Py_INCREF(fk);
            int r = PyDict_DelItem(entries, fk);
            Py_DECREF(fk);
            if (r < 0)
                goto fail;
        }
        PyObject *lst = PyList_New(1);
        if (lst == NULL)
            goto fail;
        Py_INCREF(tago);
        PyList_SET_ITEM(lst, 0, tago);
        int r = PyDict_SetItem(entries, et, lst);
        Py_DECREF(lst);
        if (r < 0)
            goto fail;
    }
    else {
        /* LRU promote, then MRU-front the successor list */
        Py_INCREF(succ);
        if (PyDict_DelItem(entries, et) < 0 ||
            PyDict_SetItem(entries, et, succ) < 0) {
            Py_DECREF(succ);
            goto fail;
        }
        long long s0 = PyLong_AsLongLong(PyList_GET_ITEM(succ, 0));
        if (s0 == -1 && PyErr_Occurred()) {
            Py_DECREF(succ);
            goto fail;
        }
        if (s0 != tag) {
            Py_ssize_t len = PyList_GET_SIZE(succ);
            for (Py_ssize_t q = 0; q < len; q++) {
                long long qv =
                    PyLong_AsLongLong(PyList_GET_ITEM(succ, q));
                if (qv == -1 && PyErr_Occurred()) {
                    Py_DECREF(succ);
                    goto fail;
                }
                if (qv == tag) {
                    if (PyList_SetSlice(succ, q, q + 1, NULL) < 0) {
                        Py_DECREF(succ);
                        goto fail;
                    }
                    break;
                }
            }
            if (PyList_Insert(succ, 0, tago) < 0) {
                Py_DECREF(succ);
                goto fail;
            }
            Py_ssize_t ln2 = PyList_GET_SIZE(succ);
            if (ln2 > e->pht_targets &&
                PyList_SetSlice(succ, e->pht_targets, ln2, NULL) < 0) {
                Py_DECREF(succ);
                goto fail;
            }
        }
        Py_DECREF(succ);
    }
    /* THT push: new row = old_seq[1:] + (tag,), running sum updated */
    {
        PyObject *newseq = PyTuple_New(klen);
        if (newseq == NULL)
            goto fail;
        for (Py_ssize_t q = 1; q < klen; q++) {
            PyObject *it = PyTuple_GET_ITEM(old_seq, q);
            Py_INCREF(it);
            PyTuple_SET_ITEM(newseq, q - 1, it);
        }
        Py_INCREF(tago);
        PyTuple_SET_ITEM(newseq, klen - 1, tago);
        long long seq0 = PyLong_AsLongLong(PyTuple_GET_ITEM(old_seq, 0));
        if (seq0 == -1 && PyErr_Occurred()) {
            Py_DECREF(newseq);
            goto fail;
        }
        if (PyList_SetItem(e->tht_hist, s, newseq) < 0) /* steals */
            goto fail;
        old_sum = old_sum - seq0 + tag;
        e->thtsum[s] = old_sum;
    }
    e->tp++;
    e->pfu++;
    /* PHT predict on the new sequence (new_seq[-1] == tag) */
    e->pl++;
    hi = old_sum & e->seq_mask;
    pidx = e->n_bits == 0 ? hi : ((hi << e->n_bits) | (s & e->miss_mask));
    Py_DECREF(entries);
    lru = PyList_GET_ITEM(e->pht_sets, pidx);
    entries = PyObject_GetAttr(lru, s_entries);
    if (entries == NULL) {
        Py_DECREF(tago);
        return -1;
    }
    succ = PyDict_GetItemWithError(entries, tago);
    if (succ == NULL && PyErr_Occurred())
        goto fail;
    if (succ != NULL) {
        Py_INCREF(succ);
        if (PyDict_DelItem(entries, tago) < 0 ||
            PyDict_SetItem(entries, tago, succ) < 0) {
            Py_DECREF(succ);
            goto fail;
        }
        e->ph++;
        double launch = v + (double)e->pf_delay;
        long long npred = 0;
        Py_ssize_t nsucc = PyList_GET_SIZE(succ);
        for (Py_ssize_t q = 0; q < nsucc; q++) {
            long long nt = PyLong_AsLongLong(PyList_GET_ITEM(succ, q));
            if (nt == -1 && PyErr_Occurred()) {
                Py_DECREF(succ);
                goto fail;
            }
            long long pb = (nt << e->tht_ib) | s;
            if (pb == block)
                continue;
            npred++;
            if (issue_pf_c(e, pb, launch) < 0) {
                Py_DECREF(succ);
                goto fail;
            }
        }
        e->pfp += npred;
        Py_DECREF(succ);
    }
    Py_DECREF(entries);
    Py_DECREF(tago);
    return 0;
fail:
    Py_DECREF(entries);
    Py_DECREF(tago);
    return -1;
}

/* ================= methods ================= */

static PyObject *
Engine_sync_out(EngineObject *e, PyObject *Py_UNUSED(ignored))
{
    if (sync_out_internal(e) < 0 || l1_sync_out(e) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_sync_in(EngineObject *e, PyObject *Py_UNUSED(ignored))
{
    if (sync_in_internal(e) < 0)
        return NULL;
    if (e->tcp_fast && thtsum_reload(e) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_set_callbacks(EngineObject *e, PyObject *args)
{
    PyObject *ifetch_cb, *observe_cb, *evict_cb;
    if (!PyArg_ParseTuple(args, "OOO", &ifetch_cb, &observe_cb, &evict_cb))
        return NULL;
    Py_INCREF(ifetch_cb);
    Py_XSETREF(e->ifetch_cb, ifetch_cb);
    Py_INCREF(observe_cb);
    Py_XSETREF(e->observe_cb, observe_cb);
    Py_INCREF(evict_cb);
    Py_XSETREF(e->evict_cb, evict_cb);
    Py_RETURN_NONE;
}

static PyObject *
Engine_take_stats(EngineObject *e, PyObject *Py_UNUSED(ignored))
{
    PyObject *d = PyDict_New();
    if (d == NULL)
        return NULL;
#define PUT(name, val)                                                   \
    do {                                                                 \
        PyObject *o = PyLong_FromLongLong((long long)(val));             \
        if (o == NULL || PyDict_SetItemString(d, name, o) < 0) {         \
            Py_XDECREF(o);                                               \
            Py_DECREF(d);                                                \
            return NULL;                                                 \
        }                                                                \
        Py_DECREF(o);                                                    \
    } while (0)
    PUT("demand", e->dc);
    PUT("loads", e->ldc);
    PUT("stores", e->stc);
    PUT("hits", e->hc);
    PUT("ifetch", e->ifc);
    PUT("l1m", e->l1m);
    PUT("l2a", e->l2a);
    PUT("l2h", e->l2h);
    PUT("l2m", e->l2m);
    PUT("pfo", e->pfo);
    PUT("useful", e->useful);
    PUT("mgd", e->mgd);
    PUT("wb1", e->wb1);
    PUT("wb2", e->wb2);
    PUT("pfr", e->pfr);
    PUT("pfi", e->pfi);
    PUT("pfred", e->pfred);
    PUT("pfdq", e->pfdq);
    PUT("pfdb", e->pfdb);
    PUT("pfev", e->pfev);
    PUT("pfl", e->pfl);
    PUT("pfu", e->pfu);
    PUT("pfp", e->pfp);
    PUT("tl", e->tl);
    PUT("tp", e->tp);
    PUT("pu", e->pu);
    PUT("pl", e->pl);
    PUT("ph", e->ph);
    PUT("mshr_full_stalls", e->msh_fs);
    PUT("epi_ns", e->epi_ns);
#undef PUT
    e->dc = e->ldc = e->stc = e->hc = e->ifc = 0;
    e->l1m = e->l2a = e->l2h = e->l2m = 0;
    e->pfo = e->useful = e->mgd = e->wb1 = e->wb2 = 0;
    e->pfr = e->pfi = e->pfred = e->pfdq = e->pfdb = e->pfev = 0;
    e->pfl = e->pfu = e->pfp = e->tl = e->tp = 0;
    e->pu = e->pl = e->ph = 0;
    return d;
}

/* ================= construction / teardown ================= */

static int
get_buffer(PyObject *spec, const char *key, Py_buffer *view,
           Py_ssize_t itemsize, void *ptr_out, int *have)
{
    PyObject *obj = PyDict_GetItemString(spec, key);
    if (obj == NULL || obj == Py_None) {
        if (have != NULL) {
            *have = 0;
            *(void **)ptr_out = NULL;
            return 0;
        }
        PyErr_Format(PyExc_KeyError, "spec missing array %s", key);
        return -1;
    }
    if (PyObject_GetBuffer(obj, view, PyBUF_CONTIG_RO) < 0)
        return -1;
    if (view->itemsize != itemsize) {
        PyErr_Format(PyExc_TypeError, "spec array %s: itemsize %zd != %zd",
                     key, view->itemsize, itemsize);
        PyBuffer_Release(view);
        view->obj = NULL;
        return -1;
    }
    *(void **)ptr_out = view->buf;
    if (have != NULL)
        *have = 1;
    return 0;
}

static int
get_obj(PyObject *spec, const char *key, PyObject **out, int optional)
{
    PyObject *obj = PyDict_GetItemString(spec, key);
    if (obj == NULL || (optional && obj == Py_None)) {
        if (!optional && obj == NULL) {
            PyErr_Format(PyExc_KeyError, "spec missing object %s", key);
            return -1;
        }
        *out = NULL;
        return 0;
    }
    Py_INCREF(obj);
    *out = obj;
    return 0;
}

static int
get_ll(PyObject *spec, const char *key, long long *out)
{
    PyObject *obj = PyDict_GetItemString(spec, key);
    if (obj == NULL) {
        PyErr_Format(PyExc_KeyError, "spec missing int %s", key);
        return -1;
    }
    long long v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

static int
get_f(PyObject *spec, const char *key, double *out)
{
    PyObject *obj = PyDict_GetItemString(spec, key);
    if (obj == NULL) {
        PyErr_Format(PyExc_KeyError, "spec missing float %s", key);
        return -1;
    }
    double v = PyFloat_AsDouble(obj);
    if (v == -1.0 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

static int
Engine_init(EngineObject *e, PyObject *args, PyObject *kwds)
{
    PyObject *spec;
    static char *kwlist[] = {"spec", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!", kwlist, &PyDict_Type,
                                     &spec))
        return -1;
    long long tmp;
#define GETBUF(key, view, isz, field, have)                              \
    if (get_buffer(spec, key, &e->view, isz, &e->field, have) < 0)       \
        return -1
    GETBUF("idx", idx_b, 8, idx, NULL);
    GETBUF("instr", instr_b, 8, instr, NULL);
    GETBUF("blocks", blocks_b, 8, blocks, NULL);
    GETBUF("tags", tags_b, 8, tags, NULL);
    GETBUF("deps", deps_b, 8, deps, NULL);
    GETBUF("load", load_b, 1, load, NULL);
    GETBUF("incs", incs_b, 8, incs, NULL);
    GETBUF("l2i", l2i_b, 8, l2i, NULL);
    GETBUF("l2t", l2t_b, 8, l2t, NULL);
    GETBUF("pcs", pcs_b, 8, pcs, NULL);
    GETBUF("fb", fb_b, 8, fb, &e->have_fb);
#undef GETBUF
    e->n = e->idx_b.len / (Py_ssize_t)sizeof(long long);
    Py_buffer *planes[] = {&e->instr_b, &e->blocks_b, &e->tags_b,
                           &e->deps_b,  &e->incs_b,   &e->l2i_b,
                           &e->l2t_b,   &e->pcs_b};
    for (size_t q = 0; q < sizeof(planes) / sizeof(planes[0]); q++) {
        if (planes[q]->len != e->idx_b.len) {
            PyErr_SetString(PyExc_ValueError, "trace planes differ in length");
            return -1;
        }
    }
    if (e->load_b.len != e->n ||
        (e->have_fb && e->fb_b.len != e->idx_b.len)) {
        PyErr_SetString(PyExc_ValueError, "trace planes differ in length");
        return -1;
    }

    if (get_obj(spec, "msh_inf", &e->msh_inf, 0) < 0 ||
        get_obj(spec, "l2_sets", &e->l2_sets, 0) < 0 ||
        get_obj(spec, "l1_lines", &e->l1_lines, 0) < 0 ||
        get_obj(spec, "pht_sets", &e->pht_sets, 1) < 0 ||
        get_obj(spec, "tht_hist", &e->tht_hist, 1) < 0 ||
        get_obj(spec, "resident", &e->resident, 0) < 0 ||
        get_obj(spec, "cacheline", &e->cacheline, 0) < 0 ||
        get_obj(spec, "l1i_lookup", &e->l1i_lookup, 0) < 0 ||
        get_obj(spec, "ab", &e->ab, 0) < 0 ||
        get_obj(spec, "db", &e->db, 0) < 0 ||
        get_obj(spec, "mab", &e->mab, 0) < 0 ||
        get_obj(spec, "mdb", &e->mdb, 0) < 0 ||
        get_obj(spec, "mshr", &e->mshr, 0) < 0 ||
        get_obj(spec, "memory", &e->memory, 0) < 0 ||
        get_obj(spec, "hierarchy", &e->hierarchy, 0) < 0 ||
        layout_init(e->cacheline, &e->lay) < 0)
        return -1;
    if (!PyList_Check(e->l2_sets) || !PyList_Check(e->l1_lines) ||
        (e->tht_hist != NULL && !PyList_Check(e->tht_hist)) ||
        (e->pht_sets != NULL && !PyList_Check(e->pht_sets))) {
        PyErr_SetString(PyExc_TypeError, "spec containers must be lists");
        return -1;
    }

#define GETLL(key, field)                                                \
    do {                                                                 \
        if (get_ll(spec, key, &tmp) < 0)                                 \
            return -1;                                                   \
        e->field = tmp;                                                  \
    } while (0)
    GETLL("window", window);
    GETLL("lsq", lsq);
    GETLL("l1_lat", l1_lat);
    GETLL("l2_lat", l2_lat);
    GETLL("l1_beats", l1_beats);
    GETLL("mem_beats", mem_beats);
    GETLL("mem_lat", mem_lat);
    GETLL("mem_maxc", mem_maxc);
    GETLL("msh_entries", msh_entries);
    GETLL("l2_ways", l2_ways);
    GETLL("pf_max", pf_max);
    GETLL("pht_ways", pht_ways);
    GETLL("pht_targets", pht_targets);
    GETLL("l2_shift", l2_shift);
    GETLL("l2_imask", l2_imask);
    GETLL("l2_ibits", l2_ibits);
    GETLL("l1i_mask", l1i_mask);
    GETLL("l1i_bits", l1i_bits);
    GETLL("seq_mask", seq_mask);
    GETLL("miss_mask", miss_mask);
    GETLL("n_bits", n_bits);
    GETLL("tht_ib", tht_ib);
    GETLL("pf_delay", pf_delay);
    GETLL("lru_pf", lru_pf);
    GETLL("ideal_l2", ideal_l2);
    GETLL("model_icache", model_icache);
    GETLL("tcp_fast", tcp_fast);
    GETLL("null_fast", null_fast);
    GETLL("has_prefetcher", has_prefetcher);
    GETLL("needs_evict", needs_evict);
#undef GETLL
    if (get_f(spec, "ls_s", &e->ls_s) < 0 ||
        get_f(spec, "inv_cr", &e->inv_cr) < 0 ||
        get_f(spec, "pf_busy_thr", &e->pf_busy_thr) < 0)
        return -1;
    if (e->model_icache && !e->have_fb) {
        PyErr_SetString(PyExc_ValueError, "model_icache without fb plane");
        return -1;
    }
    if (e->tcp_fast && (e->pht_sets == NULL || e->tht_hist == NULL)) {
        PyErr_SetString(PyExc_ValueError, "tcp_fast without THT/PHT state");
        return -1;
    }

    /* engine-owned arrays */
    Py_ssize_t n = e->n ? e->n : 1;
    e->l1_sets = PyList_GET_SIZE(e->l1_lines);
    Py_ssize_t sets = e->l1_sets ? e->l1_sets : 1;
    e->tht_rows = e->tcp_fast ? PyList_GET_SIZE(e->tht_hist) : 0;
    e->comp_arr = PyMem_Calloc(n, sizeof(double));
    e->cmt_arr = PyMem_Calloc(n, sizeof(double));
    e->l1tag = PyMem_Calloc(sets, sizeof(long long));
    e->l1la = PyMem_Calloc(sets, sizeof(double));
    e->l1ft = PyMem_Calloc(sets, sizeof(double));
    e->l1dirty = PyMem_Calloc(sets, 1);
    e->l1touch = PyMem_Calloc(sets, 1);
    e->thtsum = PyMem_Calloc(e->tht_rows ? e->tht_rows : 1,
                             sizeof(long long));
    if (!e->comp_arr || !e->cmt_arr || !e->l1tag || !e->l1la || !e->l1ft ||
        !e->l1dirty || !e->l1touch || !e->thtsum) {
        PyErr_NoMemory();
        return -1;
    }
    if (l1_load(e) < 0 || sync_in_internal(e) < 0 ||
        (e->tcp_fast && thtsum_reload(e) < 0))
        return -1;
    return 0;
}

static void
Engine_dealloc(EngineObject *e)
{
    Py_buffer *views[] = {
        &e->idx_b, &e->instr_b, &e->blocks_b, &e->tags_b, &e->deps_b,
        &e->load_b, &e->incs_b, &e->l2i_b, &e->l2t_b, &e->pcs_b, &e->fb_b,
    };
    for (size_t q = 0; q < sizeof(views) / sizeof(views[0]); q++) {
        if (views[q]->obj != NULL)
            PyBuffer_Release(views[q]);
    }
    PyMem_Free(e->comp_arr);
    PyMem_Free(e->cmt_arr);
    PyMem_Free(e->l1tag);
    PyMem_Free(e->l1la);
    PyMem_Free(e->l1ft);
    PyMem_Free(e->l1dirty);
    PyMem_Free(e->l1touch);
    PyMem_Free(e->thtsum);
    PyMem_Free(e->heap);
    Py_XDECREF(e->msh_inf);
    Py_XDECREF(e->mem_comp);
    Py_XDECREF(e->pf_inflight);
    Py_XDECREF(e->l2_sets);
    Py_XDECREF(e->l1_lines);
    Py_XDECREF(e->pht_sets);
    Py_XDECREF(e->tht_hist);
    Py_XDECREF(e->resident);
    Py_XDECREF(e->cacheline);
    Py_XDECREF(e->l1i_lookup);
    Py_XDECREF(e->ab);
    Py_XDECREF(e->db);
    Py_XDECREF(e->mab);
    Py_XDECREF(e->mdb);
    Py_XDECREF(e->mshr);
    Py_XDECREF(e->memory);
    Py_XDECREF(e->hierarchy);
    Py_XDECREF(e->ifetch_cb);
    Py_XDECREF(e->observe_cb);
    Py_XDECREF(e->evict_cb);
    Py_TYPE(e)->tp_free((PyObject *)e);
}

static PyMethodDef Engine_methods[] = {
    {"step", (PyCFunction)Engine_step, METH_VARARGS,
     "step(i, stop, li, lc, nd, P, last_fb) -> (li, lc, nd, P, last_fb)\n"
     "Run the core loop over accesses [i, stop)."},
    {"sync_out", (PyCFunction)Engine_sync_out, METH_NOARGS,
     "Write mirrored component scalars and changed L1D sets back to the "
     "live objects."},
    {"sync_in", (PyCFunction)Engine_sync_in, METH_NOARGS,
     "Reload mirrored component scalars, rebuild the MSHR heap and "
     "recompute the THT running sums."},
    {"set_callbacks", (PyCFunction)Engine_set_callbacks, METH_VARARGS,
     "set_callbacks(ifetch_cb, observe_cb, evict_cb)"},
    {"take_stats", (PyCFunction)Engine_take_stats, METH_NOARGS,
     "Drain accumulated stat deltas as a dict (and reset them)."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject EngineType = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro.backend.native._native.Engine",
    .tp_basicsize = sizeof(EngineObject),
    .tp_itemsize = 0,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Compiled core loop operating on live simulator state.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Engine_init,
    .tp_dealloc = (destructor)Engine_dealloc,
    .tp_methods = Engine_methods,
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_native",
    .m_doc = "Compiled core loop for the native simulation backend.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__native(void)
{
#define INTERN(var, text)                                                \
    do {                                                                 \
        var = PyUnicode_InternFromString(text);                          \
        if (var == NULL)                                                 \
            return NULL;                                                 \
    } while (0)
    INTERN(s_entries, "_entries");
    INTERN(s_next_free, "next_free");
    INTERN(s_busy_cycles, "busy_cycles");
    INTERN(s_queued_cycles, "queued_cycles");
    INTERN(s_transfers, "transfers");
    INTERN(s_earliest, "_earliest");
    INTERN(s_full_stalls, "full_stalls");
    INTERN(s_merges, "merges");
    INTERN(s_peak_occupancy, "peak_occupancy");
    INTERN(s_completions_attr, "_completions");
    INTERN(s_accesses, "accesses");
    INTERN(s_pf_inflight_attr, "_pf_inflight");
#undef INTERN
    if (PyType_Ready(&EngineType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&native_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&EngineType);
    if (PyModule_AddObject(m, "Engine", (PyObject *)&EngineType) < 0) {
        Py_DECREF(&EngineType);
        Py_DECREF(m);
        return NULL;
    }
    if (PyModule_AddIntConstant(m, "ABI_VERSION", 2) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
