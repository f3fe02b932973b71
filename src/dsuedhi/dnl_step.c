/* The time loop of ``dnl._step``: one call steps the joined copies of a batch.

   Built by ``dnl._kernel`` with -ffp-contract=off and without fast-math, so
   every operation rounds once, as its numpy form does. Curves are row-major
   with ``cols`` columns: ``up`` and ``dn`` hold the entries and exits of every
   row of the batch (link rows of copies B-1, ..., 0, then the sources of
   copies 0, ..., B-1), ``sl`` the entries of every slot, in row order. The
   first k copies hold rows [(B-k)A, BA + k n_src) and the slots of those
   rows, so a step reads and writes one contiguous range of each.

   Sums mirror numpy: ``np.bincount`` and ``np.add.at`` add in sequence, in
   index order; ``ndarray.sum`` is 0.0 plus numpy's pairwise sum (``sum``). */

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
double dnl_sum(const double *a, i64 n)
{
    return 0.0 + pairwise(a, n);
}

/* Vehicles stored in copy b of a batch of B, from ``inside``, the entries
   minus exits of every row: its links summed over all ``n_links`` in link
   order, with 0.0 where a link has no row (``every_link`` holds them), plus
   the sum of its sources. ``ndarray.sum`` adds 8 or more numbers pairwise,
   in partial sums picked by position, so summing only the rows would round
   otherwise, and a last-bit change can move the step at which a pattern
   drains. */
double dnl_stored(const double *inside, const i64 *used_links, i64 B, i64 A1, i64 n_src,
                  i64 n_links, i64 b, double *every_link)
{
    memset(every_link, 0, sizeof(double) * (size_t)n_links);
    for (i64 a = 0; a < A1; a++)
        every_link[used_links[a]] = inside[(B - 1 - b) * A1 + a];
    return dnl_sum(every_link, n_links) + dnl_sum(inside + B * A1 + b * n_src, n_src);
}

/* value of a sampled curve at a time before its last written sample
   (``_positions`` and ``_interp_rows``; the clamp to the end never binds) */
static double lagged(const double *row, double time, double dt)
{
    double x = max2(time / dt, 0.0);
    i64 idx = (i64)x;
    double frac = x - (double)idx;
    return row[idx] + frac * (row[idx + 1] - row[idx]);
}

/* value of a slot curve at ``tau``, clamped to samples 0..last, reading the
   sample itself at fraction 1 */
static double held(const double *row, double tau, double dt, i64 last)
{
    double x = min2(max2(tau / dt, 0.0), (double)last);
    i64 idx = (i64)x;
    if (idx > last - 1)
        idx = last - 1;
    double frac = x - (double)idx;
    double lo = row[idx], hi = row[idx + 1];
    return frac >= 1.0 ? hi : lo + frac * (hi - lo);
}

/* ``_invert_rows`` on one row of n samples: the earliest time it reaches the
   relaxed target; samples below it are counted by bisection, since rows
   never decrease */
static double invert(const double *row, i64 n, double target, double dt, double rate_beyond)
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
    if (lo >= n)
        return (double)(n - 1) * dt + (target - row[n - 1]) / rate_beyond;
    if (lo == 0)
        return 0.0;
    double below = row[lo - 1];
    return ((double)(lo - 1) + (target - below) / (row[lo] - below)) * dt;
}

/* Step t = ``t``, ..., ``stop`` - 1 of the first ``k`` copies, returning
   the step it stopped before. From step ``t_sim`` - 1 on, every copy has
   joined and its stored vehicles (links summed over all ``n_links`` in link
   order, with zeros off its rows, plus its sources) are tested against
   ``drain_tol``; a copy's first pass sets ``drained`` and ``n_steps``, and
   the call returns once every copy has drained. Returns -1 if out of
   memory. */
i64 dnl_step(const i64 *row_start, const i64 *slot_next, const i64 *slot_dest,
             const i64 *src_link, const i64 *used_links, const double *ff,
             const double *cap, const double *wave_lag, const double *storage,
             i64 B, i64 A1, i64 n_src, i64 n_links, double dt,
             i64 k, i64 t, i64 stop, i64 t_sim, i64 cols,
             double *up, double *dn, double *sl,
             const double *drain_tol, i64 *n_steps, uint8_t *drained)
{
    const i64 AB = B * A1;  /* rows below are link rows */
    const i64 r0 = (B - k) * A1, r1 = AB + k * n_src;
    const i64 s0 = row_start[r0], s1 = row_start[r1], sL = row_start[AB];
    const i64 R = r1 - r0, A = AB - r0, S = s1 - s0;

    /* per row from r0, per link row from r0, per slot from s0; stored vehicles */
    double *work = malloc(sizeof(double) * (size_t)(3 * R + 2 * A + S + n_links + 1));
    if (!work)
        return -1;
    double *mass = work, *total = mass + R;
    double *recv = total + R, *factor = recv + A, *comp = factor + A, *inside = comp + S;
    double *every_link = inside + R;

    for (; t < stop; t++) {
        const i64 c0 = t, c1 = t + 1;
        const double now = (double)t * dt;

        /* the new column starts from the last: link entries, exits, link slots */
        for (i64 r = r0; r < AB; r++)
            up[r * cols + c1] = up[r * cols + c0];
        for (i64 r = r0; r < r1; r++)
            dn[r * cols + c1] = dn[r * cols + c0];
        for (i64 j = s0; j < sL; j++)
            sl[j * cols + c1] = sl[j * cols + c0];

        /* sending masses: links by the demand rule, clamped to what has
           arrived (tested before the clamp); receiving masses by the supply
           rule; sources send all that entered */
        for (i64 r = r0; r < AB; r++) {
            const i64 a = r % A1, i = r - r0;
            const double *u = up + r * cols, *d = dn + r * cols;
            const double nup_lag = lagged(u, min2(now - ff[a], now), dt);
            const double arr_hi = lagged(u, min2(now + dt - ff[a], now), dt);
            const double ndn_wave = lagged(d, now - wave_lag[a], dt);
            const double ndn_now = d[c0];
            const double backlog = nup_lag - ndn_now;
            const double queued = min2(cap[a], backlog / dt);
            const double unqueued = min2(cap[a], max2(arr_hi - nup_lag, 0.0) / dt);
            const double m = (backlog > EPS_VEH ? queued : unqueued) * dt;
            const double bound = (backlog > EPS_VEH ? nup_lag : arr_hi) - ndn_now;
            mass[i] = m > EPS_VEH ? min2(m, bound) : 0.0;
            const double room = (ndn_wave + storage[a]) - u[c0];
            recv[i] = max2(0.0, min2(cap[a], room / dt)) * dt;
        }
        for (i64 r = AB; r < r1; r++) {
            const double m = up[r * cols + c1] - dn[r * cols + c0];
            mass[r - r0] = m > EPS_VEH ? m : 0.0;
        }

        /* FIFO: the mass leaving a row entered it during [tau0, tau1]; each
           slot's entries over that window, scaled to the mass, leave with it */
        for (i64 r = r0; r < r1; r++) {
            const i64 i = r - r0, n = t + (r < AB ? 1 : 2);
            const double rate = r < AB ? cap[r % A1] : 1.0, d = dn[r * cols + c0];
            const double tau0 = invert(up + r * cols, n, d, dt, rate);
            const double tau1 = invert(up + r * cols, n, d + mass[i], dt, rate);
            double *c = comp + (row_start[r] - s0);
            const i64 m = row_start[r + 1] - row_start[r];
            for (i64 j = 0; j < m; j++) {
                const double *s = sl + (row_start[r] + j) * cols;
                c[j] = max2(held(s, tau1, dt, c1) - held(s, tau0, dt, c1), 0.0);
            }
            const double sum = dnl_sum(c, m);
            const double ratio = sum > 0.0 ? mass[i] / sum : 1.0;
            for (i64 j = 0; j < m; j++)
                c[j] *= ratio;
        }

        /* merges scale each link's inflows to its supply: inflows are summed
           as ``np.bincount`` does, moving link slots in slot order, then the
           sources; ``factor`` is 1 where the inflow fits */
        memset(factor, 0, sizeof(double) * (size_t)A);
        for (i64 j = s0; j < sL; j++)
            if (slot_next[j] >= 0)
                factor[slot_next[j] - r0] += comp[j - s0];
        for (i64 r = AB; r < r1; r++)
            factor[src_link[r - AB] - r0] += mass[r - r0];
        for (i64 i = 0; i < A; i++)
            factor[i] = factor[i] > recv[i] ? recv[i] / factor[i] : 1.0;

        /* diverges scale a row's whole outflow by its most restrictive factor */
        for (i64 r = r0; r < r1; r++) {
            double *c = comp + (row_start[r] - s0);
            const i64 m = row_start[r + 1] - row_start[r], *next = slot_next + row_start[r];
            double theta = 1.0;  /* and 1 for slots whose path ends */
            for (i64 j = 0; j < m; j++)
                if (c[j] > 0.0 && next[j] >= 0)
                    theta = min2(theta, factor[next[j] - r0]);
            for (i64 j = 0; j < m; j++)
                c[j] *= theta;
            total[r - r0] = dnl_sum(c, m);
            dn[r * cols + c1] += total[r - r0];
        }

        /* transfer to each path's slot on its next link (never collides), and
           add each inflow to the entry column in turn, as ``np.add.at``
           does: moving link slots, then each source's total */
        for (i64 j = s0; j < s1; j++)
            if (slot_next[j] >= 0)
                sl[slot_dest[j] * cols + c1] += comp[j - s0];
        for (i64 j = s0; j < sL; j++)
            if (slot_next[j] >= 0)
                up[slot_next[j] * cols + c1] += comp[j - s0];
        for (i64 r = AB; r < r1; r++)
            up[src_link[r - AB] * cols + c1] += total[r - r0];

        if (c1 >= t_sim) {  /* every copy has joined */
            int all = 1;
            for (i64 r = 0; r < r1; r++)  /* and r0 is 0 */
                inside[r] = up[r * cols + c1] - dn[r * cols + c1];
            for (i64 b = 0; b < B; b++) {
                const double sum = dnl_stored(inside, used_links, B, A1, n_src, n_links, b,
                                              every_link);
                if (sum <= drain_tol[b] && !drained[b]) {
                    drained[b] = 1;
                    n_steps[b] = c1;
                }
                all &= drained[b];
            }
            if (all) {
                t++;
                break;
            }
        }
    }
    free(work);
    return t;
}
