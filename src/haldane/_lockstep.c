/* A lockstep block of the selective Cannings chain, run to absorption or to a
 * stop level.
 *
 * The block's live trials are held as entries: a count k, its running
 * maximum `peak` and a multiplicity m, the number of trials at that count
 * with that history.  A block starts as the one entry (x0, x0, trials).  An
 * entry at 0 is lost and one at `stop` (N, or a certified safe level below
 * it) or above is fixed: it adds m to fixations or losses, m times its
 * generation to tau_total, and m to hits[j] when its maximum reached above[j].
 *
 * Each generation draws what the source's `block_sums((k,), N, rng)` draws,
 * in the same order and with the same float operations (build without
 * floating-point contraction, -ffp-contract=off), for the closed-form
 * sources of `law`:
 *   DETERMINISTIC  head k, tail N - k; no draw
 *   GAMMA {kappa}, TWO_POINT {a, b, p}: one case; per trial, entry by entry,
 *                  one head `mass` over k, then one tail mass over N - k each:
 *                  Gamma(n kappa) / kappa, or j a + (n - j) b with j ~ Bin(n, p)
 *   SPIKED         {wo, lift}: entry by entry, how many of its trials have
 *                  the spike inside the head: for an entry of one trial its
 *                  spike index, uniform on [0, N) as `rng.integers(N)`
 *                  draws it, inside when below k; for an entry of m > 1
 *                  trials one Bin(m, k / N); head k wo, plus lift inside;
 *                  tail 1 - head
 * and the success probability head / (tail keep + head), keep = 1 - s.
 * The trials of an entry then fall into classes of one probability p, as
 * the source's `entry_classes` splits them: one class under DETERMINISTIC;
 * under SPIKED the trials whose spike lies outside the head and then those
 * whose spike lies inside it; otherwise one class per trial.  Class by
 * class, each trial goes to Bin(N, p) (`draw_class`): one binomial per
 * trial, or for a large class one multinomial over the successors.  Each
 * trial drawn alone becomes an entry of one, each nonzero multinomial cell
 * an entry of its size; entries are never merged, so there are never more
 * than `trials` of them.  numpy's own samplers draw from the generator's
 * bit generator, so the stream moves exactly as under numpy's Python API in
 * `cannings.run_ensemble`.
 *
 * tally gets {fixations, losses, generations summed over trials,
 * generations}.  Returns 0; -1, before drawing with it, if a success
 * probability is not in [0, 1], as for a 0/0 ratio; -2 if the block's
 * buffers cannot be allocated.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#include "numpy/random/distributions.h"

enum { DETERMINISTIC, GAMMA, TWO_POINT, SPIKED };

typedef struct {
    int64_t *k, *peak, *m;
} entries_t;

typedef struct {
    bitgen_t *bitgen;
    binomial_t binomial;
    int64_t N, stop, g, n_above;
    const int64_t *above;
    int64_t *hits, fixations, losses, tau_total;
    entries_t out; /* the next generation's entries, n_out of them */
    int64_t n_out;
} block_t;

/* The mass of a block of n potentials: under GAMMA {kappa} Gamma(n kappa) / kappa,
 * under TWO_POINT {a, b, p} j a + (n - j) b with j ~ Bin(n, p) */
static inline double mass(block_t *b, int source, const double *law, int64_t n)
{
    if (source == GAMMA)
        return random_standard_gamma(b->bitgen, (double)n * law[0]) / law[0];
    int64_t j = random_binomial(b->bitgen, law[2], n, &b->binomial);
    return (double)j * law[0] + (double)(n - j) * law[1];
}

/* `count` trials with maximum `top` moved to `next`: a new entry, or absorbed */
static void emit(block_t *b, int64_t next, int64_t top, int64_t count)
{
    if (next > top)
        top = next;
    if (0 < next && next < b->stop) {
        b->out.k[b->n_out] = next;
        b->out.peak[b->n_out] = top;
        b->out.m[b->n_out++] = count;
        return;
    }
    if (next >= b->stop)
        b->fixations += count;
    else
        b->losses += count;
    b->tau_total += b->g * count;
    for (int64_t j = 0; j < b->n_above; j++)
        if (top >= b->above[j])
            b->hits[j] += count;
}

/* n trials, each to Bin(N, p).  One binomial per trial, unless the class
 * outnumbers the outcomes numpy's inversion sampler would scan (mean
 * N min(p, 1-p) <= 30, n > mean + 10 sqrt(mean q + 1)); then one
 * multinomial by conditional binomials from the near end (Davis 1993),
 * Bin(left, pmf_j / remaining mass) as numpy's multinomial draws it, the
 * ratio taken as 1 once the remaining mass is down to the pmf. */
static int draw_class(block_t *b, double p, int64_t n, int64_t top)
{
    if (!(p >= 0.0 && p <= 1.0))
        return -1;
    int64_t N = b->N;
    double near = p <= 0.5 ? p : 1.0 - p, mean = (double)N * near;
    /* the size bound is at least 10, so a class of 10 or fewer skips it */
    if (n <= 10 || mean > 30.0 || (double)n <= mean + 10.0 * sqrt(mean * (1.0 - near) + 1.0)) {
        for (int64_t i = 0; i < n; i++)
            emit(b, random_binomial(b->bitgen, p, N, &b->binomial), top, 1);
        return 0;
    }
    double ratio = near / (1.0 - near), pmf = pow(1.0 - near, (double)N), mass = 1.0;
    for (int64_t j = 0; n > 0; j++) {
        int64_t c = j == N ? n
                  : random_binomial(b->bitgen, pmf < mass ? pmf / mass : 1.0, n, &b->binomial);
        if (c) {
            emit(b, p <= 0.5 ? j : N - j, top, c);
            n -= c;
        }
        mass -= pmf;
        pmf *= (double)(N - j) / (double)(j + 1) * ratio;
    }
    return 0;
}

int haldane_run_block(bitgen_t *bitgen, int source, const double *law, int64_t N, double keep,
                      int64_t trials, int64_t x0, int64_t stop, int64_t n_above,
                      const int64_t *above, int64_t *hits, int64_t *tally)
{
    /* two generations of entries, then p (one per trial) and inside (one per entry);
     * none where their size would wrap size_t */
    int64_t *buf = (size_t)trials <= SIZE_MAX / (8 * sizeof(int64_t))
                 ? malloc(8 * (size_t)trials * sizeof(int64_t)) : NULL;
    if (!buf)
        return -2;
    entries_t in = {buf, buf + trials, buf + 2 * trials};
    double *p = (double *)(buf + 6 * trials);
    int64_t *inside = buf + 7 * trials;
    block_t b = {.bitgen = bitgen, .N = N, .stop = stop, .n_above = n_above, .above = above,
                 .hits = hits, .out = {buf + 3 * trials, buf + 4 * trials, buf + 5 * trials}};
    in.k[0] = in.peak[0] = x0;
    in.m[0] = trials;
    int64_t n = 1;
    int rc = 0;
    while (n > 0 && !rc) {
        /* every head mass, trial by trial, then every tail mass */
        if (source == GAMMA || source == TWO_POINT) {
            for (int64_t i = 0, t = 0; i < n; i++)
                for (int64_t end = t + in.m[i]; t < end; t++)
                    p[t] = mass(&b, source, law, in.k[i]);
            for (int64_t i = 0, t = 0; i < n; i++)
                for (int64_t end = t + in.m[i]; t < end; t++)
                    p[t] /= mass(&b, source, law, N - in.k[i]) * keep + p[t];
        } else if (source == SPIKED) {
            for (int64_t i = 0; i < n; i++) {
                if (in.m[i] == 1) {
                    uint64_t pos;
                    random_bounded_uint64_fill(bitgen, 0, (uint64_t)(N - 1), 1, false, &pos);
                    inside[i] = pos < (uint64_t)in.k[i];
                } else {
                    inside[i] = random_binomial(bitgen, (double)in.k[i] / (double)N, in.m[i],
                                                &b.binomial);
                }
            }
        }
        b.g++;
        b.n_out = 0;
        for (int64_t i = 0, at = 0; i < n && !rc; at += in.m[i++]) {
            int64_t k = in.k[i], m = in.m[i], top = in.peak[i];
            if (source == DETERMINISTIC) {
                rc = draw_class(&b, (double)k / ((double)(N - k) * keep + (double)k), m, top);
            } else if (source == SPIKED) {
                double head = (double)k * law[0];
                if (m > inside[i])
                    rc = draw_class(&b, head / ((1.0 - head) * keep + head), m - inside[i], top);
                head += law[1];
                if (inside[i] && !rc)
                    rc = draw_class(&b, head / ((1.0 - head) * keep + head), inside[i], top);
            } else {
                for (int64_t t = at; t < at + m && !rc; t++)
                    rc = draw_class(&b, p[t], 1, top);
            }
        }
        entries_t done = in;
        in = b.out;
        b.out = done;
        n = b.n_out;
    }
    free(buf);
    tally[0] = b.fixations;
    tally[1] = b.losses;
    tally[2] = b.tau_total;
    tally[3] = b.g;
    return rc;
}
