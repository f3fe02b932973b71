/* The loader's time loop and read-out, the exact sums of the logit and the
   rollout of one class. ``dnl_step`` loads the patterns of a batch one
   after another in one block of curves: each takes the base's curves up to
   its own start, gets its source curves, steps on its own until it drains
   or reaches the step cap, and has its path travel times read out of the
   block (``read_out``, by the same curve interpolation and FIFO inversion)
   before the next pattern takes the block. ``dnl_path_times`` reads the
   link times of one loading the same way, from the link rows of its block.
   For ``choice``, ``dnl_run_sums`` totals runs of an array as
   ``ndarray.sum`` does; ``dnl_logit_exponents`` and ``dnl_logit_shares``
   build a share table in two passes over its open cells, around numpy's
   ``exp``, and state the disutility; and ``dnl_rollout`` carries one class's
   remaining demand through the provision intervals of a share table.

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
   (``dnl_sum``). This file is the one statement of that pairwise order. */

#include <math.h>
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

/* ``x[start[k] : start[k] + size[k]].sum()`` of each of n runs, which may
   overlap, of the ``len`` numbers of ``x``. Returns -1 at the first run that
   does not lie inside them, else 0. */
i64 dnl_run_sums(const double *x, i64 len, const i64 *start, const i64 *size, i64 n,
                 double *out)
{
    for (i64 k = 0; k < n; k++) {
        if (start[k] < 0 || size[k] < 0 || size[k] > len - start[k])
            return -1;
        out[k] = dnl_sum(x + start[k], size[k]);
    }
    return 0;
}

/* Systematic disutility of a trip of ``phi`` departing at ``t`` that aims to
   arrive at ``target``, all in one time unit: the travel time plus the
   quadratic schedule penalty, ``mu_early`` on an early gap and ``mu_late``
   on a late one (or a NaN), with numpy's operations in numpy's order. */
static double disutility(double phi, double t, double target, double mu_early, double mu_late)
{
    const double gap = (t + phi) - target;
    return phi + (gap < 0.0 ? mu_early : mu_late) * gap * gap;
}

/* Pass 1 of ``choice.share_table``'s logit. The open cells of the n
   provision intervals from ``first`` are laid out as ``choice._layout``
   lays them: interval i's P paths x departures ``first`` + i .. T - 1,
   row-major, after the cells of the intervals before it, so the paths of
   one OD (a run of equal ``path_od``) at one interval are one block. A cell
   (i, p, j) takes its travel time from ``phi[i, p, j]`` (n x ``phi_paths``
   x ``phi_cols``, where 1 repeats one path or one column), its departure
   time ``mids[j]`` and its OD's ``target``, each divided by ``unit``, and
   gets their ``disutility``. With ``theta`` 0, ``z`` gets the disutilities
   themselves. With a positive ``theta``, ``finite[k]`` tells whether block k's disutilities
   all are, and its cells get the logit's exponents: -``theta`` times the
   disutility (times 0.0 in a block that is not finite) less the block's
   largest. Returns 0 when the blocks fill the ``cells`` numbers of ``z`` and
   the ``blocks`` flags of ``finite``; -1, before writing past either, if a
   block would leave them, some path's OD lies outside [0, ``n_od``), or
   ``phi``, the intervals or ``theta`` do not fit; -2 if out of memory. */
i64 dnl_logit_exponents(const double *phi, i64 n, i64 phi_paths, i64 phi_cols, i64 first,
                        i64 T, const double *mids, const i64 *path_od, i64 P,
                        const double *target, i64 n_od, double unit, double mu_early,
                        double mu_late, double theta, double *z, i64 cells, uint8_t *finite,
                        i64 blocks)
{
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
            if (od < 0 || od >= n_od || k >= blocks || size > cells - pos) {
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

/* Pass 2 of the logit, after numpy's ``exp`` of the exponents: block k, the
   ``size[k]`` numbers of ``w`` from ``start[k]``, is divided by its
   ``ndarray.sum``, and ``top[k]`` is the block's first cell of largest
   share, as numpy finds it: none, so ``cells``, if a share is NaN. Returns
   -1 at the first block that is empty or does not lie inside the ``cells``
   numbers of ``w``, else 0. */
i64 dnl_logit_shares(double *w, i64 cells, const i64 *start, const i64 *size, i64 blocks,
                     i64 *top)
{
    for (i64 k = 0; k < blocks; k++) {
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

/* One class's rollout over the n provision intervals of a share table, as
   ``choice.rollout`` states it: at interval i, each block of the table's
   layout (m per interval, block k of each holding OD ``block_od[k]``'s paths
   x ``width`` - i departure intervals row-major, so the interval's cells are
   one paths x departures matrix) assigns ``rem`` of its OD, shares times
   demand, with the residual of the block's total folded into its cell
   ``top``; each path's first cell is realized into ``y[p, i]`` and
   subtracted from ``rem`` of OD ``path_od[p]`` in path order, as
   ``np.subtract.at`` does. A remainder below -1e-9 of its OD's demand (or of
   one vehicle) is an overdraw; smaller ones are clamped to zero as
   ``np.maximum`` does, keeping NaN (so does ``max2(1.0, demand)``, whose
   NaN fails the test as numpy's does). ``work`` holds P x ``width`` cells.
   Returns 0, or stops at the first failed check of interval i and returns
   2 i + 1 for a negative demand or a nonzero one on a non-finite block,
   with ``rem`` as the check found it, and 2 i + 2 for an overdraw, with
   ``rem`` before the clamp. */
i64 dnl_rollout(const double *share, const i64 *start, const i64 *size, const i64 *top,
                const uint8_t *finite, const i64 *block_od, i64 m, i64 n, i64 width,
                const i64 *path_od, i64 P, i64 n_od, const double *demand, double *rem,
                double *y, double *work)
{
    for (i64 i = 0; i < n; i++, width--) {
        const i64 *blocks = start + i * m;
        for (i64 k = 0; k < m; k++)
            if (rem[block_od[k]] < 0.0)
                return 2 * i + 1;
        for (i64 k = 0; k < m; k++)
            if (rem[block_od[k]] != 0.0 && !finite[i * m + k])
                return 2 * i + 1;
        for (i64 k = 0; k < m; k++) {
            const i64 j = i * m + k;
            const double d = rem[block_od[k]];
            double *out = work + (start[j] - blocks[0]);
            for (i64 c = 0; c < size[j]; c++)
                out[c] = share[start[j] + c] * d;
            work[top[j] - blocks[0]] += d - dnl_sum(out, size[j]);
        }
        for (i64 p = 0; p < P; p++) {
            y[p * n + i] = work[p * width];
            rem[path_od[p]] -= y[p * n + i];
        }
        for (i64 o = 0; o < n_od; o++)
            if (rem[o] < -1e-9 * max2(1.0, demand[o]))
                return 2 * i + 2;
        for (i64 o = 0; o < n_od; o++)
            rem[o] = rem[o] < 0.0 ? 0.0 : rem[o];
    }
    return 0;
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

/* The plan's index arrays and link parameters, as ``dnl_step`` receives
   them: A link rows then the sources, R rows in all, L link slots then the
   source slots, S slots in all, each row's slots from ``row_start[r]``. */
typedef struct {
    const i64 *row_start, *slot_next, *slot_dest, *src_link;
    const double *ff, *cap, *wave_lag, *storage;
    i64 A, R, L, S;
    double dt;
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

/* Begin a pattern in its block: its first k columns of link entries, of
   exits and of link slot entries are the base's (``take_base``). Its source
   slot entries are the cumulative departures of their paths, ``h`` (P x T),
   as numpy forms them: ``np.cumsum`` (the first departure itself, then a
   sequential sum) after a 0.0, sampled at every ``refine``-th column, the
   columns between at ``a + frac[f] * (b - a)`` of their interval's ends,
   and the total from step T ``refine`` on. A source's entries are 0.0 plus
   its slots in sequence, as ``ndarray.sum`` adds across rows. */
static void begin(const plan_t *pl, const i64 *src_path, const double *frac, i64 refine,
                  const double *h, i64 T, i64 k, const double *base_up, const double *base_dn,
                  const double *base_sl, i64 base_cols, double *up, double *dn, double *sl,
                  i64 cols)
{
    const i64 A = pl->A, R = pl->R, L = pl->L, S = pl->S, t_sim = T * refine;
    take_base(up, base_up, A, cols, base_cols, k);
    take_base(dn, base_dn, R, cols, base_cols, k);
    take_base(sl, base_sl, L, cols, base_cols, k);
    for (i64 j = L; j < S; j++) {
        const double *x = h + src_path[j - L] * T;
        double *s = sl + j * cols, cum = 0.0;
        s[0] = 0.0;
        for (i64 i = 0; i < T; i++) {
            const double next = i == 0 ? x[0] : cum + x[i];
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
   ``up`` and ``dn``, R rows of ``cols`` samples each. The cell's probe
   leaves at ``times[j]`` and passes its path's rows in turn: at each it
   reads the entries ahead of it and leaves when the exits reach them, but
   no sooner than ``row_ff`` after it came. The K nodes of the paths' prefix
   trie carry the probe: node k is row ``node_row[k]``, entered from node
   ``node_parent[k]`` (-1: at departure), which precedes it, and path p ends
   at node ``path_end[p]``; paths that share a prefix share its nodes, so
   each node is passed once per interval. Rows are read up to sample
   ``last`` and go on at ``row_cap`` after it; each node seeds its search
   with its answer for the interval before. The P x T ``path_time`` and
   ``extrapolated`` get the time from ``times[j]`` to the last exit, and
   whether some row was read past its last sample. */
static void read_out(const i64 *node_row, const i64 *node_parent, i64 K, const i64 *path_end,
                     i64 P, const double *row_ff, const double *row_cap, double dt,
                     const double *times, i64 T, i64 start, i64 last, i64 cols,
                     const double *up, const double *dn, node_t *node, double *path_time,
                     uint8_t *extrapolated)
{
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

/* Load the B patterns ``h`` (B x P x T, each pattern's departures) one after
   another in one block: ``up`` and ``dn`` hold the entries and exits of the
   plan's R rows (used links in link order, then sources), ``sl`` the entries
   of its S slots, in row order, each row ``cols`` samples. Pattern b starts
   at step ``starts[b]`` x ``refine``: it takes the first ``starts[b]`` x
   ``refine`` + 1 columns of the base's block (``base_*``; none with no base,
   then every start is 0), writes its sources (``begin``), steps until it
   drains or reaches step ``s_max`` (``advance``), its drain tolerance 1e-9
   of its total departures or of one vehicle, and reads its path times from
   its start on into ``path_time[b]`` and ``extrapolated[b]``
   (``read_out``, at the interval midpoints ``times``). ``at`` holds the
   pattern to go on with and the step it stopped before, -1 to begin it.
   Returns 0 when every pattern is done; 1, with ``at`` set, when pattern
   ``at[0]`` has not drained at the last column but is below ``s_max``:
   the caller widens the block and calls again; -1 if out of memory; -2 if
   the block ends before step t_sim, or at a start outside [0, T) or past
   the base's columns, or a step count past the block's. */
i64 dnl_step(const i64 *row_start, const i64 *slot_next, const i64 *slot_dest,
             const i64 *src_link, const i64 *src_path, const i64 *node_row,
             const i64 *node_parent, const i64 *path_end, const double *ff, const double *cap,
             const double *wave_lag, const double *storage, const double *frac,
             const double *row_ff, const double *row_cap, const double *times, i64 A, i64 n_src,
             i64 refine, i64 K, i64 P, i64 T, double dt,
             i64 B, const double *h, const i64 *starts, const double *base_up,
             const double *base_dn, const double *base_sl, i64 base_cols, i64 s_max, i64 cols,
             double *up, double *dn, double *sl, i64 *at, i64 *n_steps, uint8_t *drained,
             double *path_time, uint8_t *extrapolated)
{
    const i64 R = A + n_src, t_sim = T * refine, stop = s_max < cols - 1 ? s_max : cols - 1;
    const plan_t pl = {row_start, slot_next, slot_dest, src_link, ff, cap, wave_lag, storage,
                       A, R, row_start[A], row_start[R], dt};

    /* per row, per link row, per slot, per trie node, and one byte each:
       never malloc(0), and a read past the last is still out of bounds */
    double *work = malloc(sizeof(double) * (size_t)(3 * R + 2 * A + pl.S) + 1);
    i64 *hint = malloc(sizeof(i64) * (size_t)R + 1);  /* per row: last FIFO search answer */
    node_t *node = malloc(sizeof(node_t) * (size_t)K + 1);
    i64 code = cols > t_sim ? 0 : -2;  /* ``begin`` writes the sources to step t_sim */
    if (!work || !hint || !node)
        code = -1;
    for (i64 b = at[0]; b < B && !code; b++, at[1] = -1) {
        const double *hb = h + b * P * T;
        i64 t = at[1];
        if (t < 0) {
            const i64 k = starts[b] * refine + 1;
            if (starts[b] < 0 || starts[b] >= T || (k > 1 && k > base_cols)) {
                code = -2;
                break;
            }
            begin(&pl, src_path, frac, refine, hb, T, k, base_up, base_dn, base_sl, base_cols,
                  up, dn, sl, cols);
            drained[b] = 0;
            t = k - 1;
        }
        memset(hint, 0, sizeof(i64) * (size_t)R);
        t = advance(&pl, t, stop, t_sim, cols, up, dn, sl,
                    1e-9 * max2(1.0, dnl_sum(hb, P * T)), drained + b, n_steps + b, work, hint);
        if (!drained[b] && t < s_max) {
            at[0] = b;
            at[1] = t;
            code = 1;
            break;
        }
        if (!drained[b])
            n_steps[b] = s_max;
        if (n_steps[b] >= cols) {  /* the read-out indexes the block by it */
            code = -2;
            break;
        }
        read_out(node_row, node_parent, K, path_end, P, row_ff, row_cap, dt, times, T,
                 starts[b], n_steps[b], cols, up, dn, node, path_time + b * P * T,
                 extrapolated + b * P * T);
    }
    free(work);
    free(hint);
    free(node);
    return code;
}

/* Read one loading's link times by ``read_out``, every cell from interval 0
   on, out of its link rows ``up`` and ``dn`` (``cols`` samples each, read up
   to sample ``last``). Returns -1 if out of memory, else 0. */
i64 dnl_path_times(const i64 *node_row, const i64 *node_parent, i64 K, const i64 *path_end,
                   i64 P, const double *row_ff, const double *row_cap, double dt,
                   const double *times, i64 T, i64 last, i64 cols, const double *up,
                   const double *dn, double *path_time, uint8_t *extrapolated)
{
    node_t *node = malloc(sizeof(node_t) * (size_t)K + 1);
    if (!node)
        return -1;
    read_out(node_row, node_parent, K, path_end, P, row_ff, row_cap, dt, times, T, 0, last, cols,
             up, dn, node, path_time, extrapolated);
    free(node);
    return 0;
}
