/* The loader's time loop and read-out, and the exact sums of the logit.
   ``dnl_step`` loads the patterns of a batch one after another in one block
   of curves: each is spliced from the base's departures before its start
   and its own from there, checked and floored at zero, takes the base's
   curves up to its start, gets its source curves, steps on its own until
   it drains or reaches the step cap, and has its path travel times read
   out of the block (``read_out``, by the same curve interpolation and FIFO
   inversion) before the next pattern takes the block. ``dnl_path_times``
   reads the link times of one loading the same way, from the link rows of
   its block. For ``choice``, ``dnl_logit_exponents`` and
   ``dnl_logit_shares`` build a share table in two passes over its open
   cells, around numpy's ``exp``, and state the disutility;
   ``dnl_remaining`` takes the remaining demand of a departure history, and
   ``dnl_assign`` assigns rows of remaining demand to a share table, into
   its cells or straight into a batch of forecast patterns.

   Arguments. What stays the same from call to call comes in one argument
   block: a plan (``plan_t``), a read-out (``readout_t``) or a table layout
   (``layout_t``), a struct of pointers and sizes that ``dnl._Plan``,
   ``dnl._ReadOut`` and ``choice._Layout`` fill once, checked, and keep
   alive with their arrays read-only. An entry point takes its block by
   pointer and, besides it, only the arrays and numbers of the call.
   ``dnl_blocks`` reports each block's size and field offsets, for the
   ctypes mirrors to be tested against.

   Built by ``dnl._kernel`` with -ffp-contract=off and without fast-math, so
   every operation rounds once, as its numpy form does. The block is one
   pattern's curves: ``up`` and ``dn`` hold the plan's rows (used links in
   link order, then sources), ``sl`` its slots, in row order, and every row
   has ``cols`` samples. A pattern writes every sample of the block before
   it reads it, so nothing of the pattern before it is seen. A link that no
   path uses has no row, and nothing here reads it: a pattern's drain test
   sums its own rows.

   Work is saved only where it cannot change a bit. A row's FIFO window
   [tau0, tau1] is placed on the curve once (``locate``), and every slot of
   the row is read at those two positions. A row without outflow has tau0 =
   tau1, so its slots move +0.0 and neither end is searched for. Every
   search (``invert``) starts from the last answer of its row, kept across
   steps, or of its read-out node, kept across departure intervals: rows
   never decrease, so the answer does not depend on where the search
   starts. The read-out follows the paths' prefix trie, so a row sequence
   that paths share is chained once per cell.

   Sums mirror numpy: ``np.bincount`` and ``np.add.at`` add in sequence, in
   index order; ``ndarray.sum`` is 0.0 plus numpy's pairwise sum
   (``dnl_sum``). This file is the one statement of that pairwise order.
   ``np.maximum(x, 0.0)`` keeps x only if it is larger or NaN, so it takes
   -0.0 to 0.0 (``floor0``). */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

#define EPS_VEH 1e-12

/* np.minimum and np.maximum on numbers that are never NaN */
static double min2(double a, double b) { return a <= b ? a : b; }
static double max2(double a, double b) { return a >= b ? a : b; }

/* numpy's pairwise_sum: fewer than 8 numbers in sequence; up to 128 in 8
   accumulators, combined pairwise, then the tail; above that, two halves
   split at n/2 rounded down to a multiple of 8 */
static double pairwise(const double *a, i64 n)
{
    if (n < 8) {
        double res = 0.0;
        for (i64 i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        i64 i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* ``ndarray.sum`` of n contiguous numbers */
static double dnl_sum(const double *a, i64 n)
{
    return 0.0 + pairwise(a, n);
}

/* ``np.maximum(x, 0.0)``: x if it is larger or NaN, else 0.0 (so -0.0 gives 0.0) */
static double floor0(double x)
{
    return x > 0.0 || x != x ? x : 0.0;
}

/* ``choice.remaining_demand``: row t of ``out`` (T x ``n_od``) is ``demand``
   less the departures of the first t columns of ``h`` (P x T): each path's
   ``ndarray.sum`` of them (``dnl_sum``), added per OD ``path_od[p]`` in path
   order from 0.0, as ``np.add.at`` adds. A remainder below -1e-9 times the
   larger of its OD's demand and one vehicle is an overdraw; with none, dust
   below zero is clamped (``floor0``). Returns 0; 1, with every remainder
   left unclamped for the caller to name the worst, if some is an overdraw;
   -1, before writing, if some path's OD lies outside [0, ``n_od``). */
i64 dnl_remaining(const double *h, i64 P, i64 T, const i64 *path_od, const double *demand,
                  i64 n_od, double *out)
{
    for (i64 p = 0; p < P; p++)
        if (path_od[p] < 0 || path_od[p] >= n_od)
            return -1;
    i64 code = 0;
    for (i64 t = 0; t < T; t++) {
        double *row = out + t * n_od;
        for (i64 o = 0; o < n_od; o++)
            row[o] = 0.0;
        for (i64 p = 0; p < P; p++)
            row[path_od[p]] += dnl_sum(h + p * T, t);
        for (i64 o = 0; o < n_od; o++) {
            row[o] = demand[o] - row[o];
            /* np.maximum(1.0, demand), NaN included */
            if (row[o] < -1e-9 * (1.0 > demand[o] ? 1.0 : demand[o]))
                code = 1;
        }
    }
    for (i64 c = 0; c < T * n_od && !code; c++)
        out[c] = floor0(out[c]);
    return code;
}

/* The layout of a share table (``choice._Layout``): the open cells of the n
   provision intervals from ``first`` of T, interval i's P paths x
   departures ``first`` + i .. T - 1 row-major, after the cells of the
   intervals before it. Path p belongs to OD ``path_od[p]``; the paths of
   one OD are a run of equal ``path_od``, so they make one block at each
   interval. Block k, ``blocks`` in all, is the ``size[k]`` cells from
   ``start[k]`` of ``cells``. ``mids`` holds the T interval midpoints. */
typedef struct {
    const i64 *start, *size, *path_od;
    const double *mids;
    i64 n, first, T, P, cells, blocks;
} layout_t;

/* Systematic disutility of a trip of ``phi`` departing at ``t`` that aims to
   arrive at ``target``, all in one time unit: the travel time plus the
   quadratic schedule penalty, ``mu_early`` on an early gap and ``mu_late``
   on a late one (or a NaN), with numpy's operations in numpy's order. */
static double disutility(double phi, double t, double target, double mu_early, double mu_late)
{
    const double gap = (t + phi) - target;
    return phi + (gap < 0.0 ? mu_early : mu_late) * gap * gap;
}

/* Pass 1 of ``choice.share_table``'s logit over the open cells of ``lay``,
   whose blocks it finds from the runs of ``path_od``. A cell (i, p, j)
   takes its travel time from ``phi[i, p, j]`` (n x ``phi_paths`` x
   ``phi_cols``, where 1 repeats one path or one column), its departure
   time ``mids[j]`` and its OD's ``target`` (one for each of ``n_target``
   ODs), each divided by ``unit``, and gets their ``disutility``. With
   ``theta`` 0, ``z`` gets the disutilities themselves. With a positive
   ``theta``, ``finite[k]`` tells whether block k's disutilities all are,
   and its cells get the logit's exponents: -``theta`` times the disutility
   (times 0.0 in a block that is not finite) less the block's largest.
   Returns 0 when the blocks fill the ``cells`` numbers of ``z`` and the
   ``blocks`` flags of ``finite``; -1, before writing past either, if a
   block would leave them, some path's OD lies outside [0, ``n_target``),
   or ``phi``, the intervals or ``theta`` do not fit; -2 if out of memory. */
i64 dnl_logit_exponents(const layout_t *lay, const double *phi, i64 phi_paths, i64 phi_cols,
                        const double *target, i64 n_target, double unit, double mu_early,
                        double mu_late, double theta, double *z, uint8_t *finite)
{
    const i64 n = lay->n, first = lay->first, T = lay->T, P = lay->P, cells = lay->cells;
    const i64 blocks = lay->blocks, *path_od = lay->path_od;
    const double *mids = lay->mids;
    if (n < 0 || first < 0 || first + n > T || (phi_paths != 1 && phi_paths != P)
        || (phi_cols != 1 && phi_cols != T) || !(theta >= 0.0))
        return -1;
    double *t = malloc(sizeof(double) * (size_t)T + 1);  /* departure times in the unit */
    if (!t)
        return -2;
    for (i64 j = 0; j < T; j++)
        t[j] = mids[j] / unit;
    i64 pos = 0, k = 0, code = 0;
    for (i64 i = 0; i < n && !code; i++) {
        const i64 j0 = first + i, width = T - j0;
        for (i64 p = 0, q; p < P; p = q, k++) {
            const i64 od = path_od[p];
            for (q = p + 1; q < P && path_od[q] == od; q++)
                ;
            const i64 size = (q - p) * width;
            if (od < 0 || od >= n_target || k >= blocks || size > cells - pos) {
                code = -1;
                break;
            }
            double *out = z + pos;
            const double aim = target[od] / unit;
            double least = INFINITY;  /* the block's least disutility, if all are finite */
            uint8_t all = 1;
            for (i64 r = p, c = 0; r < q; r++) {
                const double *x = phi + (i * phi_paths + (phi_paths == 1 ? 0 : r)) * phi_cols;
                const double once = x[0] / unit;  /* the row's one time, if it has one */
                for (i64 j = j0; j < T; j++, c++) {
                    const double v = disutility(phi_cols == 1 ? once : x[j] / unit, t[j], aim,
                                                mu_early, mu_late);
                    out[c] = v;
                    least = v < least ? v : least;
                    all &= isfinite(v) != 0;
                }
            }
            finite[k] = all;
            pos += size;
            if (theta == 0.0)
                continue;
            /* -theta x is monotone, so -theta least is the largest exponent */
            const double top = -theta * (all ? least : 0.0);
            for (i64 c = 0; c < size; c++)
                out[c] = -theta * (all ? out[c] : 0.0) - top;
        }
    }
    free(t);
    if (!code && (pos != cells || k != blocks))
        code = -1;
    return code;
}

/* Pass 2 of the logit, after numpy's ``exp`` of the exponents: block k of
   ``lay``, the ``size[k]`` numbers of ``w`` from ``start[k]``, is divided by
   its ``ndarray.sum``, and ``top[k]`` is the block's first cell of largest
   share, as numpy finds it: none, so ``cells``, if a share is NaN. Returns
   -1 at the first block that is empty or does not lie inside the ``cells``
   numbers of ``w``, else 0. */
i64 dnl_logit_shares(const layout_t *lay, double *w, i64 *top)
{
    const i64 *start = lay->start, *size = lay->size, cells = lay->cells;
    for (i64 k = 0; k < lay->blocks; k++) {
        if (start[k] < 0 || size[k] < 1 || size[k] > cells - start[k])
            return -1;
        double *share = w + start[k];
        const double sum = dnl_sum(share, size[k]);
        double most = share[0];
        for (i64 c = 0; c < size[k]; c++) {
            most = share[c] > most ? share[c] : most;
            share[c] /= sum;
        }
        /* division by sum is monotone, so most / sum is the largest share
           (NaN, as sum is, if a share is) */
        most /= sum;
        top[k] = cells;
        for (i64 c = 0; c < size[k] && top[k] == cells; c++)
            if (share[c] == most)
                top[k] = start[k] + c;
    }
    return 0;
}

/* ``choice.assign``: the ``n_rows`` rows of ``demand`` (``n_od`` numbers
   each) assigned to the blocks of provision intervals ``i0`` .. ``i0`` +
   ``n_rows`` - 1 of ``lay``, one row per interval. Every cell of block k
   gets its ``share`` times its OD's demand d, and the cell ``top[k]`` then
   gets d less the block's ``ndarray.sum`` added, as numpy folds the
   residual. Cell (i, p, j) goes to ``out`` in layout order from the first
   cell of interval ``i0`` (``wide`` 0), or to ((i - ``i0``) P + p) T + j of
   an ``n_rows`` x P x T array, whose cells j before each interval are not
   written (``wide`` 1). Before writing, returns -1 if the rows do not lie
   in ``lay``, or a block's OD, cells or top do not fit it and ``n_od``;
   then 1 + the OD of the first block, in block order, whose demand is
   negative; then -3 if a block that is not ``finite`` has a demand other
   than 0 (a NaN included); -2 if out of memory; else 0. */
i64 dnl_assign(const layout_t *lay, const double *share, const i64 *top, const uint8_t *finite,
               i64 i0, i64 n_rows, const double *demand, i64 n_od, i64 wide, double *out)
{
    const i64 n = lay->n, first = lay->first, T = lay->T, P = lay->P, cells = lay->cells;
    const i64 *start = lay->start, *size = lay->size, *path_od = lay->path_od;
    if (n < 1 || first < 0 || first + n > T || i0 < 0 || n_rows < 1 || n_rows > n - i0
        || lay->blocks % n)
        return -1;
    const i64 m = lay->blocks / n;  /* blocks per interval */
    /* the first path of each block of an interval, P after the last */
    i64 *head = malloc(sizeof(i64) * (size_t)(m + 1) + 1);
    double *work = malloc(sizeof(double) * (size_t)(P * T) + 1);  /* one block's cells */
    if (!head || !work) {
        free(head);
        free(work);
        return -2;
    }
    i64 b = 0, p = 0, code = 0, negative = -1, unfit = 0;
    while (p < P && b < m) {
        const i64 od = path_od[p];
        head[b++] = p;
        while (++p < P && path_od[p] == od)
            ;
    }
    head[b] = P;
    if (b != m || p != P)
        code = -1;
    for (i64 k = i0 * m; k < (i0 + n_rows) * m && !code; k++) {
        const i64 i = k / m, rows = head[k % m + 1] - head[k % m], od = path_od[head[k % m]];
        if (od < 0 || od >= n_od || start[k] < 0 || size[k] != rows * (T - first - i)
            || size[k] > cells - start[k] || top[k] < start[k] || top[k] - start[k] >= size[k]) {
            code = -1;
            break;
        }
        const double d = demand[(i - i0) * n_od + od];
        if (d < 0.0 && negative < 0)
            negative = od;
        unfit |= d != 0.0 && !finite[k];
    }
    if (!code && negative >= 0)
        code = 1 + negative;
    else if (!code && unfit)
        code = -3;
    for (i64 i = i0, pos = 0; i < i0 + n_rows && !code; i++) {
        const i64 width = T - first - i;
        /* where each path's row of the interval goes, one after another */
        double *o = wide ? out + (i - i0) * P * T + first + i : out + pos;
        const i64 stride = wide ? T : width;
        for (i64 k = i * m; k < (i + 1) * m; k++) {
            const i64 p = head[k % m], rows = head[k % m + 1] - p;
            const double d = demand[(i - i0) * n_od + path_od[p]], *s = share + start[k];
            for (i64 c = 0; c < size[k]; c++)
                work[c] = s[c] * d;
            work[top[k] - start[k]] += d - dnl_sum(work, size[k]);
            for (i64 r = 0; r < rows; r++)
                memcpy(o + (p + r) * stride, work + r * width, sizeof(double) * (size_t)width);
        }
        pos += P * width;
    }
    free(head);
    free(work);
    return code;
}

/* where ``time`` falls on a sampled curve, clamped to samples 0..last: a
   sample and the fraction of the segment after it; from sample ``last`` on
   it is fraction 1 of the segment before (fraction 0 of sample 0 if last is
   0, where the row must still have a second column). The step reads link
   curves before sample ``last``; its FIFO reads of slot curves and the
   read-out can reach it. */
typedef struct {
    i64 idx;
    double frac;
} position;

static position locate(double time, double dt, i64 last)
{
    double x = min2(max2(time / dt, 0.0), (double)last);
    i64 idx = (i64)x;
    if (idx == last && idx > 0)
        idx--;
    return (position){idx, x - (double)idx};
}

static double value_at(const double *row, position at)
{
    return row[at.idx] + at.frac * (row[at.idx + 1] - row[at.idx]);
}

/* value of a sampled curve at ``time``, as ``locate`` places it */
static double lagged(const double *row, double time, double dt, i64 last)
{
    return value_at(row, locate(time, dt, last));
}

/* The earliest time a row of n samples reaches ``target``, relaxed by a
   vanishing epsilon so that a probe carrying only numerical dust (logit tail
   masses far below one vehicle) does not wait for the next real cohort.
   Rows never decrease, so the first sample at or above the target is one
   index wherever the search starts: it gallops from sample ``*hint`` (any
   index from 0; the answer for a nearby target saves steps) to a bracket
   of it, bisects the bracket, and leaves the answer in ``*hint``. Beyond
   its last sample the row goes on at ``rate_beyond``; ``beyond`` tells
   whether the target needed that. */
static double invert(const double *row, i64 n, double target, double dt, double rate_beyond,
                     uint8_t *beyond, i64 *hint)
{
    target = max2(target - (EPS_VEH + EPS_VEH * target), 0.0);
    /* the answer is in [lo, hi], n if no sample reaches the target */
    const i64 h = *hint < n ? *hint : n;
    i64 lo = 0, hi = h;
    if (h < n && row[h] < target) {
        lo = h + 1;
        hi = n;
        for (i64 step = 1; h + step < n; step *= 2) {
            if (row[h + step] >= target) {
                hi = h + step;
                break;
            }
            lo = h + step + 1;
        }
    } else {
        for (i64 step = 1; h - step >= 0; step *= 2) {
            if (row[h - step] < target) {
                lo = h - step + 1;
                break;
            }
            hi = h - step;
        }
    }
    while (lo < hi) {
        i64 mid = lo + (hi - lo) / 2;
        if (row[mid] < target)
            lo = mid + 1;
        else
            hi = mid;
    }
    *hint = lo;
    *beyond = lo >= n;
    if (lo >= n)
        return (double)(n - 1) * dt + (target - row[n - 1]) / rate_beyond;
    if (lo == 0)
        return 0.0;
    double below = row[lo - 1];
    return ((double)(lo - 1) + (target - below) / (row[lo] - below)) * dt;
}

/* A read-out (``dnl._ReadOut``): the prefix trie of P paths over rows of
   curves sampled every ``dt``, and what ``read_out`` reads of each row.
   Node k of K is row ``node_row[k]``, entered from node ``node_parent[k]``
   (-1: at departure), which precedes it, and path p ends at node
   ``path_end[p]``; paths that share a prefix share its nodes. A probe
   stays at least ``row_ff[r]`` on row r, whose exits go on at ``row_cap[r]``
   past its last sample. The probe of departure interval j of T leaves at
   ``times[j]``. */
typedef struct {
    const i64 *node_row, *node_parent, *path_end;
    const double *row_ff, *row_cap, *times;
    i64 K, P, T;
    double dt;
} readout_t;

/* A plan (``dnl._Plan``): A link rows then the sources, R rows in all, L
   link slots then the source slots, S slots in all, each row's slots from
   ``row_start[r]``. Slot j moves to row ``slot_next[j]`` (-1: its path
   ends), into its path's slot ``slot_dest[j]`` there; source r feeds link
   row ``src_link[r - A]``, and source slot j carries path ``src_path[j -
   L]``. The link rows' free-flow times, capacities, backward-wave lags and
   storages follow; ``frac`` holds the fractions of an interval at its
   ``refine`` + 1 internal steps of ``dt``, and ``paths`` reads the paths'
   times at the interval midpoints. */
typedef struct {
    const i64 *row_start, *slot_next, *slot_dest, *src_link, *src_path;
    const double *ff, *cap, *wave_lag, *storage, *frac;
    i64 A, R, L, S, refine;
    double dt;
    readout_t paths;
} plan_t;

/* One node of the read-out's prefix trie, for the cell being read. */
typedef struct {
    double clock;  /* when the probe left the node's row */
    i64 hint;      /* the node's last search answer */
    uint8_t flag;  /* some row up to here read past its last sample */
} node_t;

/* The first k columns of n rows of ``cols`` samples: 0.0, then the base's
   columns 1 to k - 1 (rows of ``base_cols`` samples). */
static void take_base(double *x, const double *base, i64 n, i64 cols, i64 base_cols, i64 k)
{
    for (i64 r = 0; r < n; r++) {
        x[r * cols] = 0.0;
        for (i64 c = 1; c < k; c++)
            x[r * cols + c] = base[r * base_cols + c];
    }
}

/* The departures of a pattern that starts at interval ``start``, P x T, into
   ``x``: the base's ``base_h`` before ``start`` and its own ``h`` from there
   on, floored at zero (``floor0``). Returns -3 if one is not finite, else
   -4 if one is below -1e-9, else 0. */
static i64 splice(const double *h, const double *base_h, i64 start, i64 P, i64 T, double *x)
{
    uint8_t finite = 1, negative = 0;
    for (i64 p = 0; p < P; p++) {
        if (start)
            memcpy(x + p * T, base_h + p * T, sizeof(double) * (size_t)start);
        memcpy(x + p * T + start, h + p * T + start, sizeof(double) * (size_t)(T - start));
    }
    for (i64 c = 0; c < P * T; c++) {
        finite &= isfinite(x[c]) != 0;
        negative |= x[c] < -1e-9;
        x[c] = floor0(x[c]);
    }
    return !finite ? -3 : negative ? -4 : 0;
}

/* Begin a pattern that starts at interval ``start`` in its block, its
   departures ``x`` (``splice``). Its first k = ``start`` ``refine`` + 1
   columns of link entries, of exits and of link slot entries are the
   base's (``take_base``). Its source slot entries are the cumulative
   departures of their paths, as numpy forms them:
   ``np.cumsum`` (the first departure itself, then a sequential sum) after a
   0.0, sampled at every ``refine``-th column, the columns between at ``a +
   frac[f] * (b - a)`` of their interval's ends, and the total from step T
   ``refine`` on. A source's entries are 0.0 plus its slots in sequence, as
   ``ndarray.sum`` adds across rows. Returns the pattern's drain tolerance,
   1e-9 of the ``ndarray.sum`` of ``x`` or of one vehicle. */
static double begin(const plan_t *pl, const double *x, i64 start, const double *base_up,
                    const double *base_dn, const double *base_sl, i64 base_cols, double *up,
                    double *dn, double *sl, i64 cols)
{
    const i64 A = pl->A, R = pl->R, L = pl->L, S = pl->S, P = pl->paths.P, T = pl->paths.T;
    const i64 refine = pl->refine, t_sim = T * refine, *src_path = pl->src_path;
    const i64 k = start * refine + 1;
    const double *frac = pl->frac;
    take_base(up, base_up, A, cols, base_cols, k);
    take_base(dn, base_dn, R, cols, base_cols, k);
    take_base(sl, base_sl, L, cols, base_cols, k);
    for (i64 j = L; j < S; j++) {
        const double *row = x + src_path[j - L] * T;
        double *s = sl + j * cols, cum = 0.0;
        s[0] = 0.0;
        for (i64 i = 0; i < T; i++) {
            const double next = i == 0 ? row[0] : cum + row[i];
            for (i64 f = 1; f < refine; f++)
                s[i * refine + f] = cum + frac[f] * (next - cum);
            s[(i + 1) * refine] = cum = next;
        }
        for (i64 c = t_sim + 1; c < cols; c++)
            s[c] = cum;
    }
    for (i64 r = A; r < R; r++) {
        double *u = up + r * cols;
        for (i64 c = 0; c < cols; c++)
            u[c] = 0.0;
        for (i64 j = pl->row_start[r]; j < pl->row_start[r + 1]; j++)
            for (i64 c = 0; c < cols; c++)
                u[c] += sl[j * cols + c];
    }
    return 1e-9 * max2(1.0, dnl_sum(x, P * T));
}

/* Step a pattern's block on its own from step t up to step ``stop`` - 1,
   and return the step it stopped before. From step ``t_sim`` - 1 on, its
   stored vehicles, the ``ndarray.sum`` of its rows' entries minus exits
   (used links in link order, then sources), are tested against
   ``drain_tol``; the first pass sets ``*drained`` and ``*n_steps`` and ends
   the steps. Each row seeds its FIFO searches with its last answer,
   ``hint[r]``, kept across steps. ``work`` holds 3 R + 2 A + S numbers. */
static i64 advance(const plan_t *pl, i64 t, i64 stop, i64 t_sim, i64 cols, double *up,
                   double *dn, double *sl, double drain_tol, uint8_t *drained, i64 *n_steps,
                   double *work, i64 *hint)
{
    const i64 *row_start = pl->row_start, *slot_next = pl->slot_next;
    const double *ff = pl->ff, *cap = pl->cap, dt = pl->dt;
    const i64 A = pl->A, R = pl->R, L = pl->L, S = pl->S;
    double *mass = work, *total = mass + R;
    double *recv = total + R, *factor = recv + A, *comp = factor + A, *inside = comp + S;

    for (; t < stop && !*drained; t++) {
        const i64 c0 = t, c1 = t + 1;
        const double now = (double)t * dt;

        /* the new column starts from the last: link entries, exits, link slots */
        for (i64 r = 0; r < A; r++)
            up[r * cols + c1] = up[r * cols + c0];
        for (i64 r = 0; r < R; r++)
            dn[r * cols + c1] = dn[r * cols + c0];
        for (i64 j = 0; j < L; j++)
            sl[j * cols + c1] = sl[j * cols + c0];

        /* sending masses: links by the demand rule, clamped to what has
           arrived (tested before the clamp); receiving masses by the
           supply rule; sources send all that entered */
        for (i64 a = 0; a < A; a++) {
            const double *u = up + a * cols, *d = dn + a * cols;
            const double nup_lag = lagged(u, min2(now - ff[a], now), dt, c1);
            const double arr_hi = lagged(u, min2(now + dt - ff[a], now), dt, c1);
            const double ndn_wave = lagged(d, now - pl->wave_lag[a], dt, c1);
            const double ndn_now = d[c0];
            const double backlog = nup_lag - ndn_now;
            const double queued = min2(cap[a], backlog / dt);
            const double unqueued = min2(cap[a], max2(arr_hi - nup_lag, 0.0) / dt);
            const double m = (backlog > EPS_VEH ? queued : unqueued) * dt;
            const double bound = (backlog > EPS_VEH ? nup_lag : arr_hi) - ndn_now;
            mass[a] = m > EPS_VEH ? min2(m, bound) : 0.0;
            const double room = (ndn_wave + pl->storage[a]) - u[c0];
            recv[a] = max2(0.0, min2(cap[a], room / dt)) * dt;
        }
        for (i64 r = A; r < R; r++) {
            const double m = up[r * cols + c1] - dn[r * cols + c0];
            mass[r] = m > EPS_VEH ? m : 0.0;
        }

        /* FIFO: the mass leaving a row entered it during [tau0, tau1];
           each slot's entries over that window, scaled to the mass,
           leave with it. Without mass tau0 is tau1, so every slot moves
           +0.0, and neither is searched for. */
        for (i64 r = 0; r < R; r++) {
            double *c = comp + row_start[r];
            const i64 m = row_start[r + 1] - row_start[r];
            if (mass[r] == 0.0) {
                memset(c, 0, sizeof(double) * (size_t)m);
                continue;
            }
            const i64 n = t + (r < A ? 1 : 2);
            const double rate = r < A ? cap[r] : 1.0, d = dn[r * cols + c0];
            const double *u = up + r * cols;
            uint8_t beyond;  /* not read */
            const position at0 = locate(invert(u, n, d, dt, rate, &beyond, hint + r), dt, c1);
            const position at1 = locate(invert(u, n, d + mass[r], dt, rate, &beyond, hint + r),
                                        dt, c1);
            for (i64 j = 0; j < m; j++) {
                const double *s = sl + (row_start[r] + j) * cols;
                c[j] = max2(value_at(s, at1) - value_at(s, at0), 0.0);
            }
            const double sum = dnl_sum(c, m);
            const double ratio = sum > 0.0 ? mass[r] / sum : 1.0;
            for (i64 j = 0; j < m; j++)
                c[j] *= ratio;
        }

        /* merges scale each link's inflows to its supply: inflows are
           summed as ``np.bincount`` does, moving link slots in slot
           order, then the sources; ``factor`` is 1 where the inflow fits */
        memset(factor, 0, sizeof(double) * (size_t)A);
        for (i64 j = 0; j < L; j++)
            if (slot_next[j] >= 0)
                factor[slot_next[j]] += comp[j];
        for (i64 r = A; r < R; r++)
            factor[pl->src_link[r - A]] += mass[r];
        for (i64 a = 0; a < A; a++)
            factor[a] = factor[a] > recv[a] ? recv[a] / factor[a] : 1.0;

        /* diverges scale a row's whole outflow by its most restrictive factor */
        for (i64 r = 0; r < R; r++) {
            double *c = comp + row_start[r];
            const i64 m = row_start[r + 1] - row_start[r], *next = slot_next + row_start[r];
            double theta = 1.0;  /* and 1 for slots whose path ends */
            for (i64 j = 0; j < m; j++)
                if (c[j] > 0.0 && next[j] >= 0)
                    theta = min2(theta, factor[next[j]]);
            for (i64 j = 0; j < m; j++)
                c[j] *= theta;
            total[r] = dnl_sum(c, m);
            dn[r * cols + c1] += total[r];
        }

        /* transfer to each path's slot on its next link (never collides),
           and add each inflow to the entry column in turn, as
           ``np.add.at`` does: moving link slots, then each source's total */
        for (i64 j = 0; j < S; j++)
            if (slot_next[j] >= 0)
                sl[pl->slot_dest[j] * cols + c1] += comp[j];
        for (i64 j = 0; j < L; j++)
            if (slot_next[j] >= 0)
                up[slot_next[j] * cols + c1] += comp[j];
        for (i64 r = A; r < R; r++)
            up[pl->src_link[r - A] * cols + c1] += total[r];

        if (c1 >= t_sim) {
            for (i64 r = 0; r < R; r++)
                inside[r] = up[r * cols + c1] - dn[r * cols + c1];
            if (dnl_sum(inside, R) <= drain_tol) {
                *drained = 1;
                *n_steps = c1;
            }
        }
    }
    return t;
}

/* Read the open cells (p, j >= ``start``) of one pattern out of its curves
   ``up`` and ``dn``, rows of ``cols`` samples each, by the read-out ``ro``.
   The cell's probe leaves at ``times[j]`` and passes its path's rows in
   turn: at each it reads the entries ahead of it and leaves when the exits
   reach them, but no sooner than ``row_ff`` after it came. The nodes of the
   paths' prefix trie carry the probe, so each node is passed once per
   interval. Rows are read up to sample ``last`` and go on at ``row_cap``
   after it; each node seeds its search with its answer for the interval
   before. The P x T ``path_time`` and ``extrapolated`` get the time from
   ``times[j]`` to the last exit, and whether some row was read past its
   last sample. */
static void read_out(const readout_t *ro, i64 start, i64 last, i64 cols, const double *up,
                     const double *dn, node_t *node, double *path_time, uint8_t *extrapolated)
{
    const i64 *node_row = ro->node_row, *node_parent = ro->node_parent, *path_end = ro->path_end;
    const i64 K = ro->K, P = ro->P, T = ro->T;
    const double *row_ff = ro->row_ff, *row_cap = ro->row_cap, *times = ro->times, dt = ro->dt;
    for (i64 k = 0; k < K; k++)
        node[k].hint = 0;
    for (i64 j = start; j < T; j++) {
        for (i64 k = 0; k < K; k++) {
            const i64 r = node_row[k], parent = node_parent[k];
            const double clock = parent < 0 ? times[j] : node[parent].clock;
            uint8_t beyond;
            const double ahead = lagged(up + r * cols, clock, dt, last);
            const double exit = invert(dn + r * cols, last + 1, ahead, dt, row_cap[r], &beyond,
                                       &node[k].hint);
            node[k].clock = max2(clock + row_ff[r], exit);
            node[k].flag = (parent < 0 ? 0 : node[parent].flag) | beyond;
        }
        for (i64 p = 0; p < P; p++) {
            const node_t *end = node + path_end[p];
            path_time[p * T + j] = end->clock - times[j];
            extrapolated[p * T + j] = end->flag;
        }
    }
}

/* Load the B patterns ``h`` (B x P x T) from pattern ``first`` on, one
   after another in one block: ``up`` and ``dn`` hold the entries and exits
   of the plan's R rows (used links in link order, then sources), ``sl`` the
   entries of its S slots, in row order, each row ``cols`` samples. Pattern
   b starts at interval ``starts[b]``: its departures are the base's,
   ``base_h`` (P x T), before it and ``h[b]`` from there on, so the cells of
   ``h[b]`` before it are not read. It splices and checks them
   (``splice``), takes the first ``starts[b]`` x ``refine`` + 1 columns of
   the base's block (``base_*``; none with no base, then every start is 0),
   writes its sources (``begin``), steps until it drains or reaches step
   ``s_max`` (``advance``), and reads its path times from its start on into
   ``path_time[b]`` and ``extrapolated[b]`` (``read_out`` by the plan's
   ``paths``). A pattern writes each column before it reads it, so it steps
   the same in any block. Returns 0 when every pattern is done; b + 1 when
   pattern b has not drained at the last column but is below ``s_max``: the
   caller calls again from b in a wider block, where b begins anew; -1 if
   out of memory; -2, before any pattern is stepped, if ``first`` is
   negative, or the block ends before step t_sim, or at a start outside [0,
   T) or past the base's columns, and at a step count past the block's; -3
   at a pattern with a departure that is not finite, and -4 at one with a
   departure below -1e-9 unless a later pattern has one that is not finite,
   so that -3 wins as ``dnl.DnlError`` tells them apart. */
i64 dnl_step(const plan_t *pl, i64 B, const double *h, const i64 *starts, const double *base_h,
             const double *base_up, const double *base_dn, const double *base_sl, i64 base_cols,
             i64 s_max, i64 cols, double *up, double *dn, double *sl, i64 first, i64 *n_steps,
             uint8_t *drained, double *path_time, uint8_t *extrapolated)
{
    const i64 A = pl->A, R = pl->R, P = pl->paths.P, T = pl->paths.T, refine = pl->refine;
    const i64 t_sim = T * refine, stop = s_max < cols - 1 ? s_max : cols - 1;

    /* per row, per link row, per slot, per trie node, per departure, and
       one byte each: never malloc(0), and a read past the last is still out
       of bounds */
    double *work = malloc(sizeof(double) * (size_t)(3 * R + 2 * A + pl->S) + 1);
    i64 *hint = malloc(sizeof(i64) * (size_t)R + 1);  /* per row: last FIFO search answer */
    node_t *node = malloc(sizeof(node_t) * (size_t)pl->paths.K + 1);
    double *x = malloc(sizeof(double) * (size_t)(P * T) + 1);  /* a pattern's departures */
    i64 code = cols > t_sim && first >= 0 ? 0 : -2;  /* ``begin`` writes sources to t_sim */
    if (!work || !hint || !node || !x)
        code = -1;
    for (i64 b = first; b < B && !code; b++)
        if (starts[b] < 0 || starts[b] >= T || (starts[b] && starts[b] * refine + 1 > base_cols))
            code = -2;
    for (i64 b = first; b < B && !code; b++) {
        code = splice(h + b * P * T, base_h, starts[b], P, T, x);
        for (i64 c = b + 1; c < B && code == -4; c++)
            if (splice(h + c * P * T, base_h, starts[c], P, T, x) == -3)
                code = -3;
        if (code)
            break;
        const double tol = begin(pl, x, starts[b], base_up, base_dn, base_sl, base_cols, up, dn,
                                 sl, cols);
        drained[b] = 0;
        memset(hint, 0, sizeof(i64) * (size_t)R);
        const i64 t = advance(pl, starts[b] * refine, stop, t_sim, cols, up, dn, sl, tol,
                              drained + b, n_steps + b, work, hint);
        if (!drained[b] && t < s_max) {
            code = b + 1;
            break;
        }
        if (!drained[b])
            n_steps[b] = s_max;
        if (n_steps[b] >= cols) {  /* the read-out indexes the block by it */
            code = -2;
            break;
        }
        read_out(&pl->paths, starts[b], n_steps[b], cols, up, dn, node, path_time + b * P * T,
                 extrapolated + b * P * T);
    }
    free(work);
    free(hint);
    free(node);
    free(x);
    return code;
}

/* Read one loading's link times by ``read_out`` of ``ro``, every cell from
   interval 0 on, out of its link rows ``up`` and ``dn`` (``cols`` samples
   each, read up to sample ``last``). Returns -1 if out of memory, else 0. */
i64 dnl_path_times(const readout_t *ro, i64 last, i64 cols, const double *up, const double *dn,
                   double *path_time, uint8_t *extrapolated)
{
    node_t *node = malloc(sizeof(node_t) * (size_t)ro->K + 1);
    if (!node)
        return -1;
    read_out(ro, 0, last, cols, up, dn, node, path_time, extrapolated);
    free(node);
    return 0;
}

/* Each field of an argument block: its offset, and its kind (0 a pointer,
   1 an i64, 2 a double, 3 a read-out) */
#define FIELD(s, f) (i64)offsetof(s, f), \
    _Generic(((s *)0)->f, i64: 1, double: 2, readout_t: 3, default: 0)

/* The layouts of the argument blocks, for ``dnl``'s ctypes mirrors to be
   tested against: of ``plan_t``, ``readout_t`` and ``layout_t`` in turn,
   the size and then each field in order (``FIELD``). Writes at most n
   numbers into ``out`` and returns how many there are. */
i64 dnl_blocks(i64 *out, i64 n)
{
    const i64 all[] = {
        sizeof(plan_t), FIELD(plan_t, row_start), FIELD(plan_t, slot_next),
        FIELD(plan_t, slot_dest), FIELD(plan_t, src_link), FIELD(plan_t, src_path),
        FIELD(plan_t, ff), FIELD(plan_t, cap), FIELD(plan_t, wave_lag), FIELD(plan_t, storage),
        FIELD(plan_t, frac), FIELD(plan_t, A), FIELD(plan_t, R), FIELD(plan_t, L),
        FIELD(plan_t, S), FIELD(plan_t, refine), FIELD(plan_t, dt), FIELD(plan_t, paths),
        sizeof(readout_t), FIELD(readout_t, node_row), FIELD(readout_t, node_parent),
        FIELD(readout_t, path_end), FIELD(readout_t, row_ff), FIELD(readout_t, row_cap),
        FIELD(readout_t, times), FIELD(readout_t, K), FIELD(readout_t, P), FIELD(readout_t, T),
        FIELD(readout_t, dt),
        sizeof(layout_t), FIELD(layout_t, start), FIELD(layout_t, size),
        FIELD(layout_t, path_od), FIELD(layout_t, mids), FIELD(layout_t, n),
        FIELD(layout_t, first), FIELD(layout_t, T), FIELD(layout_t, P), FIELD(layout_t, cells),
        FIELD(layout_t, blocks),
    };
    const i64 count = sizeof all / sizeof all[0];
    for (i64 k = 0; k < count && k < n; k++)
        out[k] = all[k];
    return count;
}
