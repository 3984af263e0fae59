/* One generation of the selective Cannings chain under a Gamma(kappa) paintbox.
 *
 * The same draws, in the same order and with the same float operations, as
 * `Gamma.block_sums((k,), N, rng)` followed by `cannings._next_counts`:
 * every head mass Gamma(k kappa) / kappa, then every tail mass
 * Gamma((N - k) kappa) / kappa, then one Bin(N, head / (head + keep tail))
 * per count, with keep = 1 - s.  numpy's own samplers draw from the
 * generator's bit generator, so the stream moves exactly as under numpy's
 * Python API.  Build without floating-point contraction (-ffp-contract=off).
 *
 * Advances the n counts k in place, with p as scratch for n doubles.
 * Returns 0, or -1 (before any binomial draw) if a success probability is
 * not in [0, 1], as for a 0/0 ratio.
 */
#include "numpy/random/distributions.h"

int haldane_gamma_generation(bitgen_t *bitgen, int64_t n, int64_t *k, int64_t N,
                             double kappa, double keep, double *p)
{
    binomial_t binomial = {0};
    for (int64_t i = 0; i < n; i++)
        p[i] = random_standard_gamma(bitgen, (double)k[i] * kappa) / kappa;
    for (int64_t i = 0; i < n; i++) {
        double tail = random_standard_gamma(bitgen, (double)(N - k[i]) * kappa) / kappa;
        tail = tail * keep + p[i];
        p[i] = p[i] / tail;
        if (!(p[i] >= 0.0 && p[i] <= 1.0))
            return -1;
    }
    for (int64_t i = 0; i < n; i++)
        k[i] = random_binomial(bitgen, p[i], N, &binomial);
    return 0;
}
