/* Compiled kernels; see _kernels_py.py for the contract and conventions.
 *
 * Plain CPython API over int arrays.  alpha is copied out of a tuple, so
 * no __index__ callback can resize it mid-read, every entry is
 * range-checked before it is used as an index, and alpha must be a
 * fixed-point-free pairing.  marking_scan also checks that it is
 * connected: that bounds every face count by v/2 + 2 and so keeps the
 * writes into by_b in range.
 * Build with `python setup.py build_ext --inplace`.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdlib.h>
#include <string.h>

#define MAX_V 28
#define MAX_N (3 * MAX_V)
#define MAX_K 8 /* block vertices at most, which bounds the blocks scored */
/* Exits a block has at most: choose_block takes no block with more, as
 * the pure twin's _size takes none with more than _MAX_EXITS, so a key (4
 * bits a port below the closed count's 4) fits 64 bits.  On a connected
 * graph no block reaches it: each step of a greedy run adds an edge unless
 * vertex v - 1 cuts the block off from the rest, which leaves it at most
 * 11 exits, and the block 0..k-1 below SEARCH_V has at most
 * 3 min(k, v - k) <= 12.  So the rule only guards the packing. */
#define MAX_EXITS 12
#define TALLY_BITS 14 /* it tallies at most 2^14 keys before reading them */
#define SHUT (-64) /* a gain no run of choose_block lifts to 0 */
#define JUMPS ((1ULL << 60) - 1) /* the bits of a key that hold its jumps */
#define SEARCH_V 10 /* the least v whose block is searched for, as in the
                     * pure twin's _SEARCH_V; below it the block is 0..k-1 */
#define EXPORT_BLOCK 0 /* 1 adds choose_block(alpha, v) to the module */

_Static_assert(MAX_V < 32 && MAX_V / 2 + 1 < 16 && 3 <= MAX_EXITS &&
               4 * MAX_EXITS <= 60, "key widths");

static PyObject *value_error(const char *message)
{
    PyErr_SetString(PyExc_ValueError, message);
    return NULL;
}

/* Copy the n entries of the tuple seq into a, each checked to lie in
 * 0..n-1, and check that they pair the darts without a fixed point.
 * Returns 0, or -1 with an exception set. */
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
    for (Py_ssize_t d = 0; d < n; d++)
        if (a[d] == d || a[a[d]] != d) {
            value_error("alpha is not a fixed-point-free pairing");
            return -1;
        }
    return 0;
}

static Py_ssize_t sigma(Py_ssize_t x) { return x % 3 == 2 ? x - 2 : x + 1; }
static Py_ssize_t sigma_inv(Py_ssize_t x) { return x % 3 == 0 ? x + 2 : x - 1; }

/* Number of cycles of the permutation p through the darts lo..hi-1 not
 * yet marked in seen, which it marks; a cycle is marked whole or not at
 * all, and it must stay within lo..hi-1. */
static int count_cycles(const Py_ssize_t *p, unsigned char *seen,
                        Py_ssize_t lo, Py_ssize_t hi)
{
    int cycles = 0;
    for (Py_ssize_t start = lo; start < hi; start++) {
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
    else if ((a = PyMem_New(Py_ssize_t, n + 1)) == NULL ||
             (seen = PyMem_Calloc((size_t)n + 1, 1)) == NULL)
        PyErr_NoMemory();
    else if (read_alpha(seq, n, a) == 0) {
        for (Py_ssize_t d = 0; d < n; d++)
            a[d] = sigma(a[d]);
        result = PyLong_FromLong(count_cycles(a, seen, 0, n));
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

/* The work marking_scan estimates for a block of j vertices with inside
 * edges between them, loops included, as in the pure twin's _work: 3v
 * steps for each of the 2^(v-1-j) outer states, 3j for each of the 2^j
 * inner states of the one walk of the block, and e for each row of the
 * table for each jump.  The e = 3j - 2 inside exits make at most e! jumps
 * and e! rows, and there are no more jumps than outer states nor rows
 * than inner states.  perms is e! or, once it passes both, a number above
 * them, so no product overflows: the last term is at most 24 * 2^(v-1),
 * and the estimate stays below 2^33, its largest being about 3v * 2^(v-2)
 * at j = 1 and v = MAX_V. */
static unsigned long long work(int v, int j, int inside)
{
    unsigned long long outer = 1ULL << (v - 1 - j), inner = 1ULL << j;
    unsigned long long perms = 1;
    int e = 3 * j - 2 * inside;
    for (int f = 2; f <= e && (perms < outer || perms < inner); f++)
        perms *= f;
    return 3ULL * v * outer + 3ULL * j * inner +
           (perms < outer ? perms : outer) * (perms < inner ? perms : inner) *
           e;
}

/* The block of marking_scan, as in the pure twin's _block: j vertices,
 * never v - 1, for the j = 1..min(v - 1, MAX_K) of least work among the
 * blocks with at most MAX_EXITS exits, the least j on a tie (one vertex
 * has at most 3).  From v = SEARCH_V each j scores the set of j vertices with
 * the most edges inside that a greedy run finds.  A run from each start
 * vertex adds the vertex that adds the most edges to the block (its loops
 * included), the lowest label on a tie, so one run scores every size; for
 * each size the run with the most edges inside wins, the lowest start on
 * a tie.  Below SEARCH_V one run, from vertex 0, adds vertex j - 1 at
 * step j, so each j scores 0..j-1 with the numbers the pure twin's prefix
 * sums give.  Writes the block into best in label order and returns its
 * size. */
static int choose_block(const Py_ssize_t *a, int v, int *best)
{
    int top = v - 1 < MAX_K ? v - 1 : MAX_K, k = 1;
    int most[MAX_K + 1], runs[MAX_K + 1][MAX_K], base[MAX_V];
    int search = v >= SEARCH_V;
    for (int i = 0; i < v; i++) { /* the loops at i */
        int ends = 0;
        for (int d = 3 * i; d < 3 * i + 3; d++)
            ends += a[d] / 3 == i;
        base[i] = ends / 2;
    }
    base[v - 1] = SHUT;
    for (int j = 1; j <= top; j++)
        most[j] = -1;
    for (int s = 0; s < (search ? v - 1 : 1); s++) {
        int gain[MAX_V], run[MAX_K], u = s, inside = base[s];
        for (int i = 0; i < v; i++)
            gain[i] = base[i];
        for (int j = 1; j <= top; j++) {
            if (j > 1) {
                u = search ? 0 : j - 1;
                for (int w = 1; search && w < v; w++)
                    if (gain[w] > gain[u])
                        u = w;
                inside += gain[u];
            }
            run[j - 1] = u;
            gain[u] = SHUT;
            for (int d = 3 * u; d < 3 * u + 3; d++)
                gain[a[d] / 3]++;
            if (inside > most[j]) {
                most[j] = inside;
                for (int i = 0; i < j; i++)
                    runs[j][i] = run[i];
            }
        }
    }
    for (int j = 2; j <= top; j++)
        if (3 * j - 2 * most[j] <= MAX_EXITS &&
            work(v, j, most[j]) < work(v, k, most[k]))
            k = j;
    for (int j = 0; j < k; j++) { /* insertion sort */
        int x = runs[k][j], i = j;
        for (; i > 0 && best[i - 1] > x; i--)
            best[i] = best[i - 1];
        best[i] = x;
    }
    return k;
}

/* A key of a tally and the states of one side that give it: their sign
 * sum, their number and their lowest mask.  The port of path x, an exit
 * index, takes bits 4x up of the key for the at most MAX_EXITS paths, and
 * the closed count the top 4 bits; a slot with count 0 is free. */
struct tallied {
    unsigned long long key;
    long long sign, count;
    unsigned long lowest;
};

/* A scan's cut in the new labels, which both walks read and the flushes
 * add into: b, the face permutation p and its two values fwd and bwd at
 * each dart, the original mask bit of each vertex, back (an exit and its
 * partner under b -> the exit's index, any other dart -> -1), shut (the
 * same darts, the ends of the paths), the e exits and nb block darts, the
 * block's table of n_rows rows, and the sums of the scan. */
struct scan {
    Py_ssize_t b[MAX_N], fwd[MAX_N], bwd[MAX_N], p[MAX_N];
    unsigned long bit[MAX_V];
    int back[MAX_N], e, nb, b_top, n_rows;
    unsigned char shut[MAX_N];
    const struct tallied *rows;
    long long by_b[MAX_V / 2 + 3], spherical, first_mask;
};

/* Order tally entries by their jumps, the low 60 bits of the key. */
static int by_jump(const void *x, const void *y)
{
    unsigned long long a = ((const struct tallied *)x)->key & JUMPS;
    unsigned long long b = ((const struct tallied *)y)->key & JUMPS;
    return (a > b) - (a < b);
}

/* Move the occupied slots of tally to its front and return their number;
 * the slots behind them are left free. */
static int gather(struct tallied *tally, int slots)
{
    int used = 0;
    for (int s = 0; s < slots; s++)
        if (tally[s].count) {
            struct tallied entry = tally[s];
            tally[s].count = 0;
            tally[used++] = entry;
        }
    return used;
}

/* Add the faces of the outer states tallied in the slots of tally to the
 * sums of s, and empty the slots.  The occupied slots are gathered at the
 * front and sorted on their jumps, so the keys of one jump J are a run.
 * Each run reads the block's table once, e steps a row: the row (c, tau)
 * gives its inner states c + cycles(J . tau) cycles through the block,
 * and these fill, by that count, the signed sum, the number and the lowest
 * inner mask of the inner states.  Each key of the run then takes
 * closed + c faces from each count c. */
static void flush_tally(struct scan *s, struct tallied *tally, int slots)
{
    int used = gather(tally, slots), jump[16]; /* a key holds 4 bits a jump */
    long long signed_by_c[3 * MAX_K + 1], states[3 * MAX_K + 1];
    unsigned long lowest[3 * MAX_K + 1];
    qsort(tally, used, sizeof *tally, by_jump);
    for (int first = 0, end; first < used; first = end) {
        unsigned long long far = tally[first].key & JUMPS;
        for (end = first + 1;
             end < used && (tally[end].key & JUMPS) == far; end++)
            ;
        for (int x = 0; x < s->e; x++)
            jump[x] = far >> 4 * x & 15;
        for (int c = 1; c <= s->nb; c++) {
            signed_by_c[c] = states[c] = 0;
            lowest[c] = ~0UL;
        }
        for (const struct tallied *row = s->rows; row < s->rows + s->n_rows;
             row++) {
            int c = (int)(row->key >> 60);
            unsigned int seen = 0;
            for (int x = 0; x < s->e; x++) {
                if (seen >> x & 1)
                    continue;
                c++;
                for (int d = x; !(seen >> d & 1);
                     d = jump[row->key >> 4 * d & 15])
                    seen |= 1U << d;
            }
            signed_by_c[c] += row->sign;
            states[c] += row->count;
            if (row->lowest < lowest[c])
                lowest[c] = row->lowest;
        }
        for (struct tallied *entry = tally + first; entry < tally + end;
             entry++) {
            int closed = entry->key >> 60;
            for (int c = 1; c <= s->nb; c++) {
                if (!states[c])
                    continue;
                int faces = closed + c;
                s->by_b[faces] += entry->sign * signed_by_c[c];
                if (faces == s->b_top) {
                    long long mask = (long long)(entry->lowest | lowest[c]);
                    if (s->first_mask < 0 || mask < s->first_mask)
                        s->first_mask = mask;
                    s->spherical += entry->count * states[c];
                }
            }
            entry->count = 0;
        }
    }
}

/* Walk the states of one side S of the cut of s in Gray order, its count
 * vertices from first, from all of S unreversed with sign +1, and tally
 * them in the 2^bits slots of tally, as the pure twin's _walk does.  Step
 * j flips vertex first + ctz(j) and rewrites p at the three darts b sends
 * to it.  The path from each of the e starts, a dart off S whose b lies in
 * S, follows p to the first dart whose b lies off S, the first that back
 * knows, and back gives the path's port.  S's darts are lo..hi-1, and the
 * cycles of p through those that neither shut nor a path marks are the
 * closed count.  The tally is an open-addressed table that holds at most
 * half its slots; with flush set it is flushed whenever it is that full,
 * and the caller flushes the rest. */
static void walk(struct scan *s, int first, int count, const int *starts,
                 int lo, int hi, struct tallied *tally, int bits, int flush)
{
    int slots = 1 << bits, used = 0, sign = 1;
    unsigned long mask = 0;
    unsigned char seen[MAX_N];
    for (unsigned long h = 0; h < 1UL << count; h++) {
        if (h) {
            int i = first;
            while (!(h >> (i - first) & 1))
                i++;
            mask ^= s->bit[i];
            sign = -sign;
            const Py_ssize_t *sigma = mask & s->bit[i] ? s->bwd : s->fwd;
            for (int t = 3 * i; t < 3 * i + 3; t++)
                s->p[s->b[t]] = sigma[s->b[t]];
        }
        memcpy(seen + lo, s->shut + lo, hi - lo);
        unsigned long long key = 0;
        for (int x = 0; x < s->e; x++) {
            Py_ssize_t d = s->p[starts[x]];
            for (; s->back[d] < 0; d = s->p[d])
                seen[d] = 1;
            key |= (unsigned long long)s->back[d] << 4 * x;
        }
        key |= (unsigned long long)count_cycles(s->p, seen, lo, hi) << 60;
        unsigned long slot = key * 0x9E3779B97F4A7C15ULL >> (64 - bits);
        while (tally[slot].count && tally[slot].key != key)
            slot = (slot + 1) & (slots - 1);
        if (tally[slot].count) {
            tally[slot].sign += sign;
            tally[slot].count++;
            if (mask < tally[slot].lowest)
                tally[slot].lowest = mask;
        } else {
            tally[slot] = (struct tallied){key, sign, 1, mask};
            if (++used == slots / 2 && flush) {
                flush_tally(s, tally, slots);
                used = 0;
            }
        }
    }
}

/* The half scan of _kernels_py.marking_scan: only masks with bit v-1
 * clear are traced (a mask and its complement give mirror images, with
 * equal face counts and, v being even, equal signs), so the totals are
 * doubled at the end.  The face permutation p takes d to sigma(alpha(d))
 * or sigma^-1(alpha(d)) by the state of vertex alpha(d) / 3, so a flip at
 * vertex i rewrites p at alpha(3i..3i+2) only.
 *
 * The traced vertices are cut into a block of k and the rest but v - 1.
 * choose_block picks k and the block from the estimate of the work
 * (work()): 2^(v-1-k) outer states of 3v steps, 2^k block states of 3k
 * steps, and e steps for each of at most min(2^k, e!) rows of the block's
 * table for each of at most min(2^(v-1-k), e!) jumps, where e darts leave
 * the block (from v = SEARCH_V; below it the block is 0..k-1).  The darts
 * are relabeled into b so the block is vertices 0..k-1 and the outer
 * vertices keep their order, and each walk flips the original bit of the
 * vertex it reverses (bit[i] for new vertex i), so every mask is in the
 * original labels.  The block darts that b sends out of the block are its
 * e exits.  p at a dart is fixed by the state of the side b sends it to,
 * so each side sees p on its own, and walk() is run once for each side.
 * The block's paths start at the exits' partners under b, the rest's at
 * the exits.
 *
 * A block state gives c closed faces and tau, the exit at which a face
 * entering by each exit leaves again; an outer state gives its closed
 * count and its jump J, the exit whose partner ends the path from each
 * exit.  Together they make closed + c + cycles(J . tau) faces.  The
 * block's tally, its 2^k states under 2^(k+1) slots, is the table, one
 * row per pair (c, tau) with the sign sum, number and lowest inner mask of
 * its states.  The rest's tally, the keys (closed, J), has twice as many
 * slots as the keys it may hold, the fewer of the outer states and
 * 2^TALLY_BITS; when it is full, or the walk is done, each distinct J among
 * its keys reads the table once (flush_tally).  Outer and inner bits are
 * disjoint, so the lowest spherical mask of a key is its lowest outer mask
 * plus its lowest spherical inner mask; first_mask is the least met.
 *
 * A closed count fits the top 4 bits of its key, on either side: the
 * faces it counts are faces of every marking that agrees with the side's
 * state, and at least one face of each marking passes an exit, as the
 * graph is connected and the block leaves out vertex v - 1, so there are
 * at most v/2 + 2 - 1 < 16 of them.
 * Returns (by_b, spherical, first_mask); the signed spherical count is
 * by_b[v/2 + 2], so it is not tallied apart.  Bad input raises the twin's
 * ValueError in the twin's order, connectivity last ("graph is not
 * connected"): v = 0 comes before it because connected() starts from
 * vertex 0, and the cap on v because it uses arrays sized by MAX_V. */
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
    Py_ssize_t a[MAX_N];
    int fail = 1;
    if (n != 3 * (Py_ssize_t)v)
        value_error("alpha length does not match vertex count");
    else if (v == 0)
        value_error("vertex count must be positive");
    else if (v > MAX_V)
        value_error("marking scan capped at v = 28");
    else if (read_alpha(seq, n, a) == 0)
        fail = 0;
    Py_DECREF(seq);
    if (fail)
        return NULL;
    if (!connected(a, v))
        return value_error("graph is not connected");
    struct scan s;
    int order[MAX_V], new[MAX_V], exits[3 * MAX_K], partners[3 * MAX_K];
    int k = choose_block(a, v, order), nb = 3 * k;
    struct tallied rows[2 << MAX_K];
    s.b_top = v / 2 + 2;
    s.nb = nb;
    s.e = 0;
    s.spherical = 0;
    s.first_mask = -1;
    memset(s.by_b, 0, sizeof s.by_b);
    for (int i = 0, j = k; i < v; i++) { /* the rest, in label order */
        int in_block = 0;
        for (int t = 0; t < k; t++)
            in_block |= order[t] == i;
        if (!in_block)
            order[j++] = i;
    }
    for (int j = 0; j < v; j++) {
        new[order[j]] = j;
        s.bit[j] = 1UL << order[j];
    }
    for (Py_ssize_t d = 0; d < n; d++)
        s.b[3 * new[d / 3] + d % 3] = 3 * new[a[d] / 3] + a[d] % 3;
    for (Py_ssize_t d = 0; d < n; d++) {
        s.fwd[d] = s.p[d] = sigma(s.b[d]);
        s.bwd[d] = sigma_inv(s.b[d]);
        s.shut[d] = (d < nb) != (s.b[d] < nb);
        s.back[d] = -1;
    }
    for (int t = 0; t < nb; t++)
        if (s.b[t] >= nb) {
            s.back[t] = s.back[s.b[t]] = s.e;
            exits[s.e] = t;
            partners[s.e++] = (int)s.b[t];
        }
    int bits = 1 + (v - 1 - k < TALLY_BITS ? v - 1 - k : TALLY_BITS);
    struct tallied *tally = PyMem_RawCalloc(1 << bits, sizeof *tally);
    if (tally == NULL)
        return PyErr_NoMemory();
    memset(rows, 0, (2 << k) * sizeof *rows);
    Py_BEGIN_ALLOW_THREADS
    walk(&s, 0, k, partners, 0, nb, rows, k + 1, 0);
    s.rows = rows;
    s.n_rows = gather(rows, 2 << k);
    walk(&s, k, v - 1 - k, exits, nb, (int)n, tally, bits, 1);
    flush_tally(&s, tally, 1 << bits);
    Py_END_ALLOW_THREADS
    PyMem_RawFree(tally);
    for (int f = 0; f <= s.b_top; f++)
        s.by_b[f] *= 2;
    s.spherical *= 2;

    PyObject *counts = PyList_New(s.b_top + 1);
    if (counts == NULL)
        return NULL;
    for (int f = 0; f <= s.b_top; f++) {
        PyObject *c = PyLong_FromLongLong(s.by_b[f]);
        if (c == NULL) {
            Py_DECREF(counts);
            return NULL;
        }
        PyList_SET_ITEM(counts, f, c);
    }
    return Py_BuildValue("(NLL)", counts, s.spherical, s.first_mask);
}

#if EXPORT_BLOCK
/* choose_block(alpha, v): the block marking_scan would walk, as a list in
 * label order, for a tuple alpha that pairs 3v darts with 2 <= v <=
 * MAX_V.  Built only for the tests that tie it to the pure twin's
 * _block. */
static PyObject *block(PyObject *self, PyObject *args)
{
    PyObject *alpha;
    int v, best[MAX_K], fail = 1;
    Py_ssize_t a[MAX_N];
    if (!PyArg_ParseTuple(args, "O!i:choose_block", &PyTuple_Type, &alpha,
                          &v))
        return NULL;
    if (v < 2 || v > MAX_V || PyTuple_GET_SIZE(alpha) != 3 * v)
        value_error("choose_block needs 3v darts and 2 <= v <= 28");
    else if (read_alpha(alpha, 3 * v, a) == 0)
        fail = 0;
    if (fail)
        return NULL;
    int k = choose_block(a, v, best);
    PyObject *list = PyList_New(k);
    for (int i = 0; list != NULL && i < k; i++) {
        PyObject *x = PyLong_FromLong(best[i]);
        if (x == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, x);
    }
    return list;
}
#endif

static PyMethodDef methods[] = {
    {"face_count", face_count, METH_O,
     "face_count(alpha): number of faces of the rotation system."},
    {"marking_scan", marking_scan, METH_VARARGS,
     "marking_scan(alpha, v) -> (signed_by_b, spherical, first_mask)."},
#if EXPORT_BLOCK
    {"choose_block", block, METH_VARARGS,
     "choose_block(alpha, v) -> the block marking_scan walks."},
#endif
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
