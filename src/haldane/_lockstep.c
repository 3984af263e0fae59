/* A lockstep block of the selective Cannings chain, run to absorption.
 *
 * Each generation draws what the source's `block_sums((k,), N, rng)` and
 * `cannings._next_counts` draw, in the same order and with the same float
 * operations (build without floating-point contraction, -ffp-contract=off),
 * for the closed-form sources of `law`:
 *   DETERMINISTIC  head k, tail N - k; no draw
 *   GAMMA          {kappa}: every head Gamma(k kappa) / kappa, then every
 *                  tail Gamma((N - k) kappa) / kappa
 *   TWO_POINT      {a, b, p}: every head j a + (k - j) b with j ~ Bin(k, p),
 *                  then every tail likewise over N - k
 *   SPIKED         {wo, lift}: one spike index per count, uniform on [0, N)
 *                  as `rng.integers(N, size=n)` draws it; head k wo, plus lift
 *                  when the index lies below k; tail 1 - head
 * then one Bin(N, head / (tail keep + head)) per count, keep = 1 - s.
 * numpy's own samplers draw from the generator's bit generator, so the
 * stream moves exactly as under numpy's Python API.
 *
 * Advances the n live counts k (and their running maxima `peak`, when
 * n_above > 0) in place, keeping only the live ones, until none is left.
 * hits[j] gains the absorbed trials whose maximum reached above[j];
 * tally gets {fixations, losses, generations summed over trials,
 * generations}.  p (n doubles) and pos (n integers) are scratch.
 * Returns 0, or -1 (before that generation's binomial draws) if a success
 * probability is not in [0, 1], as for a 0/0 ratio.
 */
#include "numpy/random/distributions.h"

enum { DETERMINISTIC, GAMMA, TWO_POINT, SPIKED };

/* j a + (n - j) b for j ~ Bin(n, p): a two-point block mass */
static double two_point_mass(bitgen_t *bitgen, const double *law, int64_t n, binomial_t *binomial)
{
    int64_t j = random_binomial(bitgen, law[2], n, binomial);
    return (double)j * law[0] + (double)(n - j) * law[1];
}

int haldane_run_block(bitgen_t *bitgen, int source, const double *law, int64_t N, double keep,
                      int64_t n, int64_t *k, int64_t *peak, int64_t n_above,
                      const int64_t *above, int64_t *hits, int64_t *tally,
                      double *p, uint64_t *pos)
{
    binomial_t binomial = {0};
    int64_t fixations = 0, losses = 0, tau_total = 0, g = 0;
    while (n > 0) {
        /* p[i] = head, then head / (tail keep + head) */
        switch (source) {
        case GAMMA:
            for (int64_t i = 0; i < n; i++)
                p[i] = random_standard_gamma(bitgen, (double)k[i] * law[0]) / law[0];
            for (int64_t i = 0; i < n; i++)
                p[i] /= random_standard_gamma(bitgen, (double)(N - k[i]) * law[0]) / law[0]
                        * keep + p[i];
            break;
        case TWO_POINT:
            for (int64_t i = 0; i < n; i++)
                p[i] = two_point_mass(bitgen, law, k[i], &binomial);
            for (int64_t i = 0; i < n; i++)
                p[i] /= two_point_mass(bitgen, law, N - k[i], &binomial) * keep + p[i];
            break;
        case SPIKED:
            random_bounded_uint64_fill(bitgen, 0, (uint64_t)(N - 1), n, false, pos);
            for (int64_t i = 0; i < n; i++) {
                double head = (double)k[i] * law[0] + (pos[i] < (uint64_t)k[i] ? law[1] : 0.0);
                p[i] = head / ((1.0 - head) * keep + head);
            }
            break;
        default: /* DETERMINISTIC */
            for (int64_t i = 0; i < n; i++)
                p[i] = (double)k[i] / ((double)(N - k[i]) * keep + (double)k[i]);
        }
        for (int64_t i = 0; i < n; i++)
            if (!(p[i] >= 0.0 && p[i] <= 1.0))
                return -1;
        g++;
        int64_t live = 0;
        for (int64_t i = 0; i < n; i++) {
            int64_t next = random_binomial(bitgen, p[i], N, &binomial);
            int64_t top = 0;
            if (n_above)
                top = next > peak[i] ? next : peak[i];
            if (0 < next && next < N) {
                k[live] = next;
                if (n_above)
                    peak[live] = top;
                live++;
                continue;
            }
            if (next == N)
                fixations++;
            else
                losses++;
            tau_total += g;
            for (int64_t j = 0; j < n_above; j++)
                hits[j] += top >= above[j];
        }
        n = live;
    }
    tally[0] = fixations;
    tally[1] = losses;
    tally[2] = tau_total;
    tally[3] = g;
    return 0;
}
