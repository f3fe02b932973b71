/* The loader's time loop and read-out, the exact sums of the logit and the
   rollout of one class. ``dnl_step`` steps each copy of a batch on its own,
   from its own step, until it drains or reaches ``stop``; ``dnl_path_times``
   then reads each copy's path travel times out of its curves, by the same
   curve interpolation and FIFO inversion. For ``choice``, ``dnl_run_sums``
   totals runs of an array as ``ndarray.sum`` does, and ``dnl_rollout``
   carries one class's remaining demand through the provision intervals of
   a share table.

   Built by ``dnl._kernel`` with -ffp-contract=off and without fast-math, so
   every operation rounds once, as its numpy form does. A batch of B patterns
   is B single loads stacked copy-major: ``up`` and ``dn`` hold B blocks of
   the plan's rows (used links in link order, then sources), ``sl`` B blocks
   of its slots, in row order, and every row has ``cols`` samples. A copy
   reads the plan's own index arrays at its own block.

   Sums mirror numpy: ``np.bincount`` and ``np.add.at`` add in sequence, in
   index order; ``ndarray.sum`` is 0.0 plus numpy's pairwise sum
   (``dnl_sum``). This file is the one statement of that pairwise order. */

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
   overlap */
void dnl_run_sums(const double *x, const i64 *start, const i64 *size, i64 n, double *out)
{
    for (i64 k = 0; k < n; k++)
        out[k] = dnl_sum(x + start[k], size[k]);
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

/* Vehicles stored in one copy, from ``inside``, the entries minus exits of
   its rows: its links summed over all ``n_links`` in link order, with 0.0
   where a link has no row (``every_link`` holds them), plus the sum of its
   sources. ``ndarray.sum`` adds 8 or more numbers pairwise, in partial sums
   picked by position, so summing only the rows would round otherwise, and a
   last-bit change can move the step at which a pattern drains. */
double dnl_stored(const double *inside, const i64 *used_links, i64 A, i64 n_src, i64 n_links,
                  double *every_link)
{
    memset(every_link, 0, sizeof(double) * (size_t)n_links);
    for (i64 a = 0; a < A; a++)
        every_link[used_links[a]] = inside[a];
    return dnl_sum(every_link, n_links) + dnl_sum(inside + A, n_src);
}

/* value of a sampled curve at ``time``, clamped to samples 0..last: from
   sample ``last`` on it is fraction 1 of the segment before (fraction 0 of
   sample 0 if last is 0, where the row must still have a second column).
   The step reads link curves before sample ``last``; its FIFO reads of
   slot curves and the read-out can reach it. */
static double lagged(const double *row, double time, double dt, i64 last)
{
    double x = min2(max2(time / dt, 0.0), (double)last);
    i64 idx = (i64)x;
    if (idx == last && idx > 0)
        idx--;
    double frac = x - (double)idx;
    return row[idx] + frac * (row[idx + 1] - row[idx]);
}

/* The earliest time a row of n samples reaches ``target``, relaxed by a
   vanishing epsilon so that a probe carrying only numerical dust (logit tail
   masses far below one vehicle) does not wait for the next real cohort.
   Samples below it are counted by bisection, since rows never decrease.
   Beyond its last sample the row goes on at ``rate_beyond``; ``beyond`` tells
   whether the target needed that. */
static double invert(const double *row, i64 n, double target, double dt, double rate_beyond,
                     uint8_t *beyond)
{
    target = max2(target - (EPS_VEH + EPS_VEH * target), 0.0);
    i64 lo = 0, hi = n;
    while (lo < hi) {
        i64 mid = lo + (hi - lo) / 2;
        if (row[mid] < target)
            lo = mid + 1;
        else
            hi = mid;
    }
    *beyond = lo >= n;
    if (lo >= n)
        return (double)(n - 1) * dt + (target - row[n - 1]) / rate_beyond;
    if (lo == 0)
        return 0.0;
    double below = row[lo - 1];
    return ((double)(lo - 1) + (target - below) / (row[lo] - below)) * dt;
}

/* Step each copy b of B that has not drained, on its own, from step
   ``t_of[b]`` up to step ``stop`` - 1, and leave in ``t_of[b]`` the step it
   stopped before. From step ``t_sim`` - 1 on, the copy's stored vehicles
   (links summed over all ``n_links`` in link order, with zeros off its rows,
   plus its sources) are tested against ``drain_tol[b]``; the first pass sets
   ``drained[b]`` and ``n_steps[b]`` and ends the copy's steps. Returns -1 if
   out of memory, else 0. */
i64 dnl_step(const i64 *row_start, const i64 *slot_next, const i64 *slot_dest,
             const i64 *src_link, const i64 *used_links, const double *ff,
             const double *cap, const double *wave_lag, const double *storage,
             i64 A, i64 n_src, i64 n_links, double dt,
             i64 B, i64 *t_of, i64 stop, i64 t_sim, i64 cols,
             double *up_of, double *dn_of, double *sl_of,
             const double *drain_tol, i64 *n_steps, uint8_t *drained)
{
    const i64 R = A + n_src, L = row_start[A], S = row_start[R];  /* rows, link slots, slots */

    /* per row, per link row, per slot; stored vehicles */
    double *work = malloc(sizeof(double) * (size_t)(3 * R + 2 * A + S + n_links + 1));
    if (!work)
        return -1;
    double *mass = work, *total = mass + R;
    double *recv = total + R, *factor = recv + A, *comp = factor + A, *inside = comp + S;
    double *every_link = inside + R;

    for (i64 b = 0; b < B; b++) {
        double *up = up_of + b * R * cols, *dn = dn_of + b * R * cols, *sl = sl_of + b * S * cols;
        i64 t = t_of[b];
        for (; t < stop && !drained[b]; t++) {
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
                const double ndn_wave = lagged(d, now - wave_lag[a], dt, c1);
                const double ndn_now = d[c0];
                const double backlog = nup_lag - ndn_now;
                const double queued = min2(cap[a], backlog / dt);
                const double unqueued = min2(cap[a], max2(arr_hi - nup_lag, 0.0) / dt);
                const double m = (backlog > EPS_VEH ? queued : unqueued) * dt;
                const double bound = (backlog > EPS_VEH ? nup_lag : arr_hi) - ndn_now;
                mass[a] = m > EPS_VEH ? min2(m, bound) : 0.0;
                const double room = (ndn_wave + storage[a]) - u[c0];
                recv[a] = max2(0.0, min2(cap[a], room / dt)) * dt;
            }
            for (i64 r = A; r < R; r++) {
                const double m = up[r * cols + c1] - dn[r * cols + c0];
                mass[r] = m > EPS_VEH ? m : 0.0;
            }

            /* FIFO: the mass leaving a row entered it during [tau0, tau1];
               each slot's entries over that window, scaled to the mass,
               leave with it */
            for (i64 r = 0; r < R; r++) {
                const i64 n = t + (r < A ? 1 : 2);
                const double rate = r < A ? cap[r] : 1.0, d = dn[r * cols + c0];
                uint8_t beyond;  /* not read */
                const double tau0 = invert(up + r * cols, n, d, dt, rate, &beyond);
                const double tau1 = invert(up + r * cols, n, d + mass[r], dt, rate, &beyond);
                double *c = comp + row_start[r];
                const i64 m = row_start[r + 1] - row_start[r];
                for (i64 j = 0; j < m; j++) {
                    const double *s = sl + (row_start[r] + j) * cols;
                    c[j] = max2(lagged(s, tau1, dt, c1) - lagged(s, tau0, dt, c1), 0.0);
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
                factor[src_link[r - A]] += mass[r];
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
                    sl[slot_dest[j] * cols + c1] += comp[j];
            for (i64 j = 0; j < L; j++)
                if (slot_next[j] >= 0)
                    up[slot_next[j] * cols + c1] += comp[j];
            for (i64 r = A; r < R; r++)
                up[src_link[r - A] * cols + c1] += total[r];

            if (c1 >= t_sim) {
                for (i64 r = 0; r < R; r++)
                    inside[r] = up[r * cols + c1] - dn[r * cols + c1];
                if (dnl_stored(inside, used_links, A, n_src, n_links, every_link)
                    <= drain_tol[b]) {
                    drained[b] = 1;
                    n_steps[b] = c1;
                }
            }
        }
        t_of[b] = t;
    }
    free(work);
    return 0;
}

/* Read each open cell (b, p, j >= ``starts[b]``) of a batch out of its
   curves, which ``up_of`` and ``dn_of`` hold as for ``dnl_step``. The cell's
   probe leaves at ``times[j]`` and passes the rows ``path_rows[p]`` (``hops``
   of them, padded with -1) in turn: at each it reads the entries ahead of it
   and leaves when the exits reach them, but no sooner than ``row_ff`` after
   it came. Pattern b's rows are read up to sample ``n_steps[b]`` and go on
   at ``row_cap`` after it. The (B, P, T) arrays ``path_time`` and
   ``extrapolated`` get the time from ``times[j]`` to the last exit, and
   whether some row was read past its last sample. */
void dnl_path_times(const i64 *path_rows, i64 P, i64 hops, const double *row_ff,
                    const double *row_cap, double dt, const double *times, i64 T,
                    i64 B, const i64 *starts, const i64 *n_steps, i64 R, i64 cols,
                    const double *up_of, const double *dn_of,
                    double *path_time, uint8_t *extrapolated)
{
    for (i64 b = 0; b < B; b++) {
        const double *up = up_of + b * R * cols, *dn = dn_of + b * R * cols;
        const i64 n = n_steps[b] + 1;
        for (i64 p = 0; p < P; p++) {
            const i64 *rows = path_rows + p * hops, cell = (b * P + p) * T;
            for (i64 j = starts[b]; j < T; j++) {
                double clock = times[j];
                uint8_t flag = 0, beyond;
                for (i64 k = 0; k < hops && rows[k] >= 0; k++) {
                    const i64 r = rows[k];
                    const double ahead = lagged(up + r * cols, clock, dt, n - 1);
                    const double exit = invert(dn + r * cols, n, ahead, dt, row_cap[r], &beyond);
                    clock = max2(clock + row_ff[r], exit);
                    flag |= beyond;
                }
                path_time[cell + j] = clock - times[j];
                extrapolated[cell + j] = flag;
            }
        }
    }
}
