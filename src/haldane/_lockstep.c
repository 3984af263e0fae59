/* A lockstep block of the selective Cannings chain, run to absorption.
 *
 * The block's live trials are held as entries: a count k, its running
 * maximum `peak` and a multiplicity m, the number of trials at that count
 * with that history.  A DETERMINISTIC or SPIKED block starts as one entry
 * (x0, x0, trials), since every trial at one count has the same law there;
 * every other source starts as `trials` entries of one.  An absorbed entry
 * adds m to fixations or losses, m times its generation to tau_total, and m
 * to hits[j] when its maximum reached above[j].
 *
 * Each generation draws what the source's `block_sums((k,), N, rng)` draws,
 * in the same order and with the same float operations (build without
 * floating-point contraction, -ffp-contract=off), for the closed-form
 * sources of `law`:
 *   DETERMINISTIC  head k, tail N - k; no draw
 *   GAMMA          {kappa}: every head Gamma(k kappa) / kappa, then every
 *                  tail Gamma((N - k) kappa) / kappa
 *   TWO_POINT      {a, b, p}: every head j a + (k - j) b with j ~ Bin(k, p),
 *                  then every tail likewise over N - k
 *   SPIKED         {wo, lift}: one spike index per trial, uniform on [0, N)
 *                  as `rng.integers(N, size=n)` draws it over all live
 *                  trials, entry by entry; head k wo, plus lift when the
 *                  index lies below k; tail 1 - head
 * and the success probability head / (tail keep + head), keep = 1 - s.
 * The trials of an entry then fall into classes of one probability p: one
 * class, or under SPIKED the trials whose spike lies outside the head and
 * then those whose spike lies inside it.  Class by class, each trial goes
 * to Bin(N, p) (`draw_class`): one binomial per trial, or for a large class
 * one multinomial over the successors.  Each trial drawn alone becomes an
 * entry of one, each nonzero multinomial cell an entry of its size; entries
 * are never merged, so there are never more than `trials` of them.  numpy's
 * own samplers draw from the generator's bit generator, so the stream moves
 * exactly as under numpy's Python API in `cannings.run_ensemble`.
 *
 * tally gets {fixations, losses, generations summed over trials,
 * generations}.  Returns 0; -1, before drawing with it, if a success
 * probability is not in [0, 1], as for a 0/0 ratio; -2 if the block's
 * buffers cannot be allocated.
 */
#include <math.h>
#include <stdlib.h>

#include "numpy/random/distributions.h"

enum { DETERMINISTIC, GAMMA, TWO_POINT, SPIKED };

typedef struct {
    int64_t *k, *peak, *m;
} entries_t;

typedef struct {
    bitgen_t *bitgen;
    binomial_t binomial;
    int64_t N, g, n_above;
    const int64_t *above;
    int64_t *hits, fixations, losses, tau_total;
    entries_t out; /* the next generation's entries, n_out of them */
    int64_t n_out;
} block_t;

/* j a + (n - j) b for j ~ Bin(n, p): a two-point block mass */
static double two_point_mass(bitgen_t *bitgen, const double *law, int64_t n, binomial_t *binomial)
{
    int64_t j = random_binomial(bitgen, law[2], n, binomial);
    return (double)j * law[0] + (double)(n - j) * law[1];
}

/* `count` trials with maximum `top` moved to `next`: a new entry, or absorbed */
static void emit(block_t *b, int64_t next, int64_t top, int64_t count)
{
    if (next > top)
        top = next;
    if (0 < next && next < b->N) {
        b->out.k[b->n_out] = next;
        b->out.peak[b->n_out] = top;
        b->out.m[b->n_out++] = count;
        return;
    }
    if (next == b->N)
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
                      int64_t trials, int64_t x0, int64_t n_above, const int64_t *above,
                      int64_t *hits, int64_t *tally)
{
    /* two generations of entries, then p (one per entry) and pos (one per trial) */
    int64_t *buf = malloc(8 * (size_t)trials * sizeof(int64_t));
    if (!buf)
        return -2;
    entries_t in = {buf, buf + trials, buf + 2 * trials};
    double *p = (double *)(buf + 6 * trials);
    uint64_t *pos = (uint64_t *)(buf + 7 * trials);
    block_t b = {.bitgen = bitgen, .N = N, .n_above = n_above, .above = above, .hits = hits,
                 .out = {buf + 3 * trials, buf + 4 * trials, buf + 5 * trials}};
    int shared = source == DETERMINISTIC || source == SPIKED;
    int64_t n = shared ? 1 : trials, live = trials;
    for (int64_t i = 0; i < n; i++) {
        in.k[i] = in.peak[i] = x0;
        in.m[i] = shared ? trials : 1;
    }
    int rc = 0;
    while (n > 0 && !rc) {
        switch (source) {
        case GAMMA:
            for (int64_t i = 0; i < n; i++)
                p[i] = random_standard_gamma(bitgen, (double)in.k[i] * law[0]) / law[0];
            for (int64_t i = 0; i < n; i++)
                p[i] /= random_standard_gamma(bitgen, (double)(N - in.k[i]) * law[0]) / law[0]
                        * keep + p[i];
            break;
        case TWO_POINT:
            for (int64_t i = 0; i < n; i++)
                p[i] = two_point_mass(bitgen, law, in.k[i], &b.binomial);
            for (int64_t i = 0; i < n; i++)
                p[i] /= two_point_mass(bitgen, law, N - in.k[i], &b.binomial) * keep + p[i];
            break;
        case SPIKED:
            random_bounded_uint64_fill(bitgen, 0, (uint64_t)(N - 1), live, false, pos);
            break;
        }
        b.g++;
        b.n_out = 0;
        for (int64_t i = 0, at = 0; i < n && !rc; at += in.m[i++]) {
            int64_t k = in.k[i], m = in.m[i], top = in.peak[i];
            if (source == DETERMINISTIC) {
                rc = draw_class(&b, (double)k / ((double)(N - k) * keep + (double)k), m, top);
            } else if (source == SPIKED) {
                int64_t inside = 0;
                for (int64_t t = at; t < at + m; t++)
                    inside += pos[t] < (uint64_t)k;
                double head = (double)k * law[0];
                if (m > inside)
                    rc = draw_class(&b, head / ((1.0 - head) * keep + head), m - inside, top);
                head += law[1];
                if (inside && !rc)
                    rc = draw_class(&b, head / ((1.0 - head) * keep + head), inside, top);
            } else {
                rc = draw_class(&b, p[i], 1, top);
            }
        }
        entries_t done = in;
        in = b.out;
        b.out = done;
        n = b.n_out;
        live = 0;
        for (int64_t i = 0; i < n; i++)
            live += in.m[i];
    }
    free(buf);
    tally[0] = b.fixations;
    tally[1] = b.losses;
    tally[2] = b.tau_total;
    tally[3] = b.g;
    return rc;
}
