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
#include <stdlib.h>

#define MAX_V 28
#define MAX_N (3 * MAX_V)
#define MAX_K 8 /* block vertices at most: an inner state fits 8 bits */
/* Exits a block has at most: choose_block takes no block with more, as
 * the pure twin's _size takes none with more than _MAX_EXITS, so a key
 * (4 bits a jump) and a table word (4 bits a tau entry, the closed count
 * and the inner state) each fit 64 bits.  On a connected graph no block
 * reaches it: each step of a greedy run adds an edge unless vertex v - 1
 * cuts the block off from the rest, which leaves it at most 11 exits, and
 * the block 0..k-1 below SEARCH_V has at most 3 min(k, v - k) <= 12.  So
 * the rule only guards the packing. */
#define MAX_EXITS 12
#define TALLY_BITS 14 /* it tallies at most 2^14 keys before reading them */
#define SHUT (-64) /* a gain no run of choose_block lifts to 0 */
#define JUMPS ((1ULL << 60) - 1) /* the bits of a key that hold its jumps */
#define SEARCH_V 10 /* the least v whose block is searched for, as in the
                     * pure twin's _SEARCH_V; below it the block is 0..k-1 */
#define EXPORT_BLOCK 0 /* 1 adds choose_block(alpha, v) to the module */

_Static_assert(MAX_V < 32 && MAX_V / 2 + 1 < 16 && 3 * MAX_K <= 32 &&
               MAX_K <= 8 && 3 <= MAX_EXITS && MAX_EXITS <= 16 &&
               4 * MAX_EXITS <= 60 && 8 + 4 * MAX_EXITS + 5 <= 64,
               "key and table word widths");

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

/* Number of cycles of the permutation p of 0..n-1 through the darts not
 * yet marked in seen, which it marks; a cycle is marked whole or not at
 * all. */
static int count_cycles(const Py_ssize_t *p, unsigned char *seen,
                        Py_ssize_t n)
{
    int cycles = 0;
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
    else if ((a = PyMem_New(Py_ssize_t, n + 1)) == NULL ||
             (seen = PyMem_Calloc((size_t)n + 1, 1)) == NULL)
        PyErr_NoMemory();
    else if (read_alpha(seq, n, a) == 0) {
        for (Py_ssize_t d = 0; d < n; d++)
            a[d] = sigma(a[d]);
        result = PyLong_FromLong(count_cycles(a, seen, n));
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
 * a tie.  Below SEARCH_V each j scores 0..j-1.  Writes the block into
 * best in label order and returns its size. */
static int choose_block(const Py_ssize_t *a, int v, int *best)
{
    int top = v - 1 < MAX_K ? v - 1 : MAX_K, k = 1;
    int most[MAX_K + 1], runs[MAX_K + 1][MAX_K];
    if (v < SEARCH_V) {
        /* The edges inside 0..j-1 are those of its darts d with a[d] < d. */
        for (int j = 1, inside = 0; j <= top; j++) {
            for (int d = 3 * j - 3; d < 3 * j; d++)
                inside += a[d] < d;
            most[j] = inside;
            for (int i = 0; i < j; i++)
                runs[j][i] = i;
        }
    } else {
        int base[MAX_V];
        for (int i = 0; i < v; i++) { /* the loops at i */
            int ends = 0;
            for (int d = 3 * i; d < 3 * i + 3; d++)
                ends += a[d] / 3 == i;
            base[i] = ends / 2;
        }
        base[v - 1] = SHUT;
        for (int j = 1; j <= top; j++)
            most[j] = -1;
        for (int s = 0; s < v - 1; s++) {
            int gain[MAX_V], run[MAX_K], u = s, inside = base[s];
            for (int i = 0; i < v; i++)
                gain[i] = base[i];
            for (int j = 1; j <= top; j++) {
                if (j > 1) {
                    u = 0;
                    for (int w = 1; w < v; w++)
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

/* The outer states of marking_scan tallied under one key (closed, J): their
 * sign sum, their number and their lowest mask.  J(x), the exit index the
 * outer state sends exit x to, takes bits 4x up of key for the at most
 * MAX_EXITS exits, and closed (at most v/2 + 1 < 16) the top 4 bits; a
 * slot with count 0 is free. */
struct outer_key {
    unsigned long long key;
    long long sign, count;
    unsigned long outer;
};

/* A row of the table of exit_table: the inner states with one pair
 * (c, tau), held in pair as tau[x] at bits 4x up and c from bit 48, with
 * their sign sum, their number and their lowest inner mask. */
struct exit_row {
    unsigned long long pair;
    long long sign, count;
    unsigned long lowest;
};

/* Order table words by value. */
static int ascending(const void *x, const void *y)
{
    unsigned long long a = *(const unsigned long long *)x;
    unsigned long long b = *(const unsigned long long *)y;
    return (a > b) - (a < b);
}

/* Order tally entries by their jumps, the low 60 bits of the key. */
static int by_jump(const void *x, const void *y)
{
    unsigned long long a = ((const struct outer_key *)x)->key & JUMPS;
    unsigned long long b = ((const struct outer_key *)y)->key & JUMPS;
    return (a > b) - (a < b);
}

/* Walk the block of k vertices once in Gray order, from every vertex
 * unreversed, and write its table into rows, one row per pair (c, tau)
 * that some inner state M gives, in ascending order of the pair; returns
 * the number of rows.  c counts the cycles of q = b . sigma_M that pass
 * no exit, and tau[x] is the index of the exit that exits[x] leads to.
 * Block vertex i flips the mask bit bit[i].  q is kept on the block
 * darts: q at a dart whose sigma_M is an exit lies outside the block, and
 * back maps it to that exit's index.  Each
 * state makes one word, its pair above its 8-bit inner state, in which
 * bit i stands for block vertex i.  As bit[] ascends, a lower state is a
 * lower mask, so once the 2^k words are sorted each pair is a run headed
 * by its lowest inner mask, and the runs are the rows. */
static int exit_table(int k, const Py_ssize_t *b, const unsigned long *bit,
                      const int *exits, int e, const int *back,
                      struct exit_row *rows)
{
    int nb = 3 * k, q[3 * MAX_K], used = 0;
    unsigned int shut = 0, state = 0; /* shut: the exits */
    unsigned long long words[1 << MAX_K];
    for (int x = 0; x < e; x++)
        shut |= 1U << exits[x];
    for (int o = 0; o < nb; o += 3) { /* every block vertex unreversed */
        q[o] = (int)b[o + 1];
        q[o + 1] = (int)b[o + 2];
        q[o + 2] = (int)b[o];
    }
    for (unsigned int j = 0; j < 1U << k; j++) {
        if (j) {
            int i = 0;
            while (!(j >> i & 1))
                i++;
            state ^= 1U << i;
            int o = 3 * i, x = q[o];
            if (state >> i & 1) { /* forward to reversed */
                q[o] = q[o + 1];
                q[o + 1] = q[o + 2];
                q[o + 2] = x;
            } else {
                q[o] = q[o + 2];
                q[o + 2] = q[o + 1];
                q[o + 1] = x;
            }
        }
        unsigned int seen = shut;
        unsigned long long word = state, closed = 0;
        for (int x = 0; x < e; x++) {
            int d = q[exits[x]];
            for (; d < nb; d = q[d])
                seen |= 1U << d;
            word |= (unsigned long long)back[d] << (8 + 4 * x);
        }
        for (int s = 0; s < nb; s++) {
            if (seen >> s & 1)
                continue;
            closed++;
            for (int d = s; !(seen >> d & 1); d = q[d])
                seen |= 1U << d;
        }
        words[j] = word | closed << 56;
    }
    qsort(words, 1U << k, sizeof *words, ascending);
    for (unsigned int j = 0; j < 1U << k; j++) {
        unsigned long long pair = words[j] >> 8;
        unsigned int inner = words[j] & 255, odd = 0;
        unsigned long mask = 0;
        for (int i = 0; i < k; i++)
            if (inner >> i & 1) {
                odd ^= 1;
                mask |= bit[i];
            }
        if (used && rows[used - 1].pair == pair) {
            rows[used - 1].sign += odd ? -1 : 1;
            rows[used - 1].count++;
        } else
            rows[used++] = (struct exit_row){pair, odd ? -1 : 1, 1, mask};
    }
    return used;
}

/* Add the faces of the outer states tallied in the slots of tally to
 * by_b, spherical and first_mask, and empty the slots.  The occupied slots
 * are gathered at the front and sorted on their jumps, so the keys of one
 * jump J are a run.  Each run reads the table of exit_table once, e steps
 * a row: the row (c, tau) gives its inner states c + cycles(J . tau)
 * cycles through the block, and these fill, by that count, the signed
 * sum, the number and the lowest inner mask of the inner states.  Each key
 * of the run then takes closed + c faces from each count c. */
static void flush_tally(struct outer_key *tally, int slots,
                       const struct exit_row *rows, int n_rows, int e,
                       int nb, int b_top, long long *by_b,
                       long long *spherical, long long *first_mask)
{
    int used = 0, jump[16]; /* by exit index, which a key holds in 4 bits */
    long long signed_by_c[3 * MAX_K + 1], states[3 * MAX_K + 1];
    unsigned long lowest[3 * MAX_K + 1];
    for (int s = 0; s < slots; s++)
        if (tally[s].count) {
            struct outer_key entry = tally[s];
            tally[s].count = 0;
            tally[used++] = entry;
        }
    qsort(tally, used, sizeof *tally, by_jump);
    for (int first = 0, end; first < used; first = end) {
        unsigned long long far = tally[first].key & JUMPS;
        for (end = first + 1;
             end < used && (tally[end].key & JUMPS) == far; end++)
            ;
        for (int x = 0; x < e; x++)
            jump[x] = far >> 4 * x & 15;
        for (int c = 1; c <= nb; c++) {
            signed_by_c[c] = states[c] = 0;
            lowest[c] = ~0UL;
        }
        for (const struct exit_row *row = rows; row < rows + n_rows; row++) {
            int c = (int)(row->pair >> 48);
            unsigned int seen = 0;
            for (int s = 0; s < e; s++) {
                if (seen >> s & 1)
                    continue;
                c++;
                for (int d = s; !(seen >> d & 1);
                     d = jump[row->pair >> 4 * d & 15])
                    seen |= 1U << d;
            }
            signed_by_c[c] += row->sign;
            states[c] += row->count;
            if (row->lowest < lowest[c])
                lowest[c] = row->lowest;
        }
        for (struct outer_key *entry = tally + first; entry < tally + end;
             entry++) {
            int closed = entry->key >> 60;
            for (int c = 1; c <= nb; c++) {
                if (!states[c])
                    continue;
                int faces = closed + c;
                by_b[faces] += entry->sign * signed_by_c[c];
                if (faces == b_top) {
                    long long mask = (long long)(entry->outer | lowest[c]);
                    if (*first_mask < 0 || mask < *first_mask)
                        *first_mask = mask;
                    *spherical += entry->count * states[c];
                }
            }
            entry->count = 0;
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
 * The half is walked block by block, both levels in Gray order, step j of
 * a walk flipping its vertex ctz(j) and alternating the sign.  The inner
 * walk runs over a block of k vertices, the outer walk over the rest but
 * v - 1.  choose_block picks k and the block from the estimate of the
 * work (work()): 2^(v-1-k) outer states of 3v steps, one walk of 2^k
 * inner states of 3k steps, and e steps for each of at most
 * min(2^k, e!) rows of the table for each of at most min(2^(v-1-k), e!)
 * jumps, where e darts leave the block (from v = SEARCH_V; below it the
 * block is 0..k-1).  The darts are relabeled into b so the block is
 * vertices 0..k-1 and the outer vertices keep their order, and each walk
 * flips the original bit of the vertex it reverses (bit[i] for new vertex
 * i), so every mask is in the original labels.  In the new labels let
 * V = b(darts 0..3k-1).  p(d) is a block dart exactly when d is in V, so
 * p(V) is the block's darts and p off V is fixed by the outer state.  The
 * block darts that b sends out of the block are its e exits.  For each
 * outer state one pass over p follows each exit x to the first dart of V,
 * whose b is an exit again, J(x): J, a bijection of the exits, is the
 * outer state's jump.  The darts no path reaches make the faces that
 * avoid V, which no inner state changes: they are counted once, as
 * closed.
 *
 * For an inner state M a face runs inside the block along
 * q = b . sigma_M until sigma_M takes it to an exit x, and J sends it on
 * to J(x).  So with tau_M(x) the exit met by following s = sigma_M(x),
 * then s = sigma_M(b(s)) while s is not an exit, and c_M the cycles of q
 * that pass no exit, the faces through the block are
 * c_M + cycles(J . tau_M), neither c_M nor tau_M depending on the outer
 * state.  As in the pure twin, exit_table walks the block once per scan
 * into a table of the pairs (c_M, tau_M), each with its sign sum, number
 * and lowest inner mask; the outer states are tallied by the key (closed,
 * J), one word, with their sign sum, number and lowest mask; and each
 * distinct J among the keys reads the table once (flush_tally).  Outer and
 * inner bits are disjoint, so the lowest spherical mask of a key is its
 * lowest outer mask plus its lowest spherical inner mask.  The tally is an
 * open-addressed table with twice as many slots as the keys it may hold,
 * the fewer of the outer states and 2^TALLY_BITS; when it is full its
 * jumps read the table and it starts again empty.  first_mask is the
 * minimum spherical mask met.
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
    Py_ssize_t a[MAX_N], b[MAX_N], fwd[MAX_N], bwd[MAX_N], p[MAX_N];
    unsigned char in_v[MAX_N], inside[MAX_N], seen[MAX_N];
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
    for (Py_ssize_t d = 0; d < n; d++)
        if (a[d] == d || a[a[d]] != d)
            return value_error("alpha is not a fixed-point-free pairing");
    if (!connected(a, v))
        return value_error("graph is not connected");
    int b_top = v / 2 + 2;
    long long by_b[MAX_V / 2 + 3] = {0};
    long long spherical = 0, first_mask = -1;
    int order[MAX_V], new[MAX_V], e = 0;
    int k = choose_block(a, v, order), nb = 3 * k;
    int exits[3 * MAX_K], back[MAX_N];
    struct exit_row rows[1 << MAX_K];
    unsigned long bit[MAX_V];
    for (int i = 0, j = k; i < v; i++) { /* the rest, in label order */
        int in_block = 0;
        for (int t = 0; t < k; t++)
            in_block |= order[t] == i;
        if (!in_block)
            order[j++] = i;
    }
    for (int j = 0; j < v; j++) {
        new[order[j]] = j;
        bit[j] = 1UL << order[j];
    }
    for (Py_ssize_t d = 0; d < n; d++)
        b[3 * new[d / 3] + d % 3] = 3 * new[a[d] / 3] + a[d] % 3;
    int bits = 1 + (v - 1 - k < TALLY_BITS ? v - 1 - k : TALLY_BITS);
    int slots = 1 << bits, used = 0;
    struct outer_key *tally = PyMem_RawCalloc(slots, sizeof *tally);
    if (tally == NULL)
        return PyErr_NoMemory();
    for (Py_ssize_t d = 0; d < n; d++) {
        fwd[d] = p[d] = sigma(b[d]);
        bwd[d] = sigma_inv(b[d]);
        in_v[d] = b[d] < nb;
        inside[d] = d < nb && in_v[d];
    }
    for (int t = 0; t < nb; t++)
        if (!in_v[t]) {
            back[b[t]] = e; /* for a dart of V outside the block */
            exits[e++] = t;
        }
    Py_BEGIN_ALLOW_THREADS
    int n_rows = exit_table(k, b, bit, exits, e, back, rows);
    unsigned long outer = 0;
    int sign = 1;
    for (unsigned long h = 0; h < 1UL << (v - 1 - k); h++) {
        if (h) {
            int i = k;
            while (!(h >> (i - k) & 1))
                i++;
            outer ^= bit[i];
            sign = -sign;
            const Py_ssize_t *table = outer & bit[i] ? bwd : fwd;
            for (int t = 3 * i; t < 3 * i + 3; t++)
                p[b[t]] = table[b[t]];
        }
        for (Py_ssize_t d = 0; d < n; d++)
            seen[d] = inside[d];
        unsigned long long key = 0;
        for (int j = 0; j < e; j++) {
            Py_ssize_t d = exits[j];
            for (; !in_v[d]; d = p[d])
                seen[d] = 1;
            seen[d] = 1;
            key |= (unsigned long long)back[d] << 4 * j;
        }
        key |= (unsigned long long)count_cycles(p, seen, n) << 60;
        unsigned long slot = key * 0x9E3779B97F4A7C15ULL >> (64 - bits);
        while (tally[slot].count && tally[slot].key != key)
            slot = (slot + 1) & (slots - 1);
        if (tally[slot].count) {
            tally[slot].sign += sign;
            tally[slot].count++;
            if (outer < tally[slot].outer)
                tally[slot].outer = outer;
        } else {
            tally[slot] = (struct outer_key){key, sign, 1, outer};
            if (++used == slots / 2) {
                flush_tally(tally, slots, rows, n_rows, e, nb, b_top, by_b,
                           &spherical, &first_mask);
                used = 0;
            }
        }
    }
    flush_tally(tally, slots, rows, n_rows, e, nb, b_top, by_b, &spherical,
               &first_mask);
    Py_END_ALLOW_THREADS
    PyMem_RawFree(tally);
    for (int f = 0; f <= b_top; f++)
        by_b[f] *= 2;
    spherical *= 2;

    PyObject *counts = PyList_New(b_top + 1);
    if (counts == NULL)
        return NULL;
    for (int f = 0; f <= b_top; f++) {
        PyObject *c = PyLong_FromLongLong(by_b[f]);
        if (c == NULL) {
            Py_DECREF(counts);
            return NULL;
        }
        PyList_SET_ITEM(counts, f, c);
    }
    return Py_BuildValue("(NLL)", counts, spherical, first_mask);
}

#if EXPORT_BLOCK
/* choose_block(alpha, v): the block marking_scan would walk, as a list in
 * label order, for a tuple alpha of 3v entries in 0..3v-1 with 2 <= v <=
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
