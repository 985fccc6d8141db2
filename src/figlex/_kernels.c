/* The sequential loops of figlex, in C: skip-gram negative-sampling (SGNS)
 * training over one epoch of the corpus and its initial vectors; the
 * float64 cosine of two vectors; the Jensen-Shannon divergence of two
 * probability vectors; the divergence test's baseline, many greedy half
 * splits of one group with the divergence of each; and numpy's PCG64
 * generator with the draws figlex makes from it.  _kernels.py builds this
 * file and loads it with ctypes.  Every draw comes from a pcg64 that the
 * caller seeds and passes by address: the SGNS kernels take their doubles
 * from it, and the split kernel and the shuffle their bounded integers.
 *
 * The arithmetic is IEEE single (SGNS), int64 (the split walk and its
 * counts) and double (the cosine and the divergence) in a fixed order, so
 * the results do not depend on the CPU's vector units.  Compile with
 * -ffp-contract=off and without -ffast-math: a fused multiply-add or a
 * reassociated sum would change them.  The divergence calls one libm
 * function, log2, so link libm after this file (-lm).  Its bytes are
 * libm's: glibc's log2 is an ifunc that takes an FMA variant on CPUs with
 * FMA, and no environment variable selects it, so
 * scripts/check_portable_bytes.py cannot vary it.  The cosine's sqrt is
 * correctly rounded everywhere.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* numpy's PCG64 (O'Neill 2014): a 128-bit linear congruential generator,
 * stepped before each output, with the XSL-RR output function.  Seeded
 * from the four words of SeedSequence.generate_state(4, uint64), it gives
 * numpy.random.PCG64's stream: the same 64-bit outputs, the same doubles
 * and the same buffered 32-bit halves.  The 128-bit words are stored as
 * two uint64, high first, so the struct needs only 8-byte alignment:
 * _kernels.py holds it in 5 uint64. */
__extension__ typedef unsigned __int128 u128;

typedef struct {
    uint64_t state[2], inc[2];
    uint32_t has_uint32, uinteger;
} pcg64;

static u128 join128(const uint64_t w[2])
{
    return (u128)w[0] << 64 | w[1];
}

static void split128(uint64_t w[2], u128 x)
{
    w[0] = (uint64_t)(x >> 64);
    w[1] = (uint64_t)x;
}

static void pcg64_step(pcg64 *g)
{
    static const u128 mult = (u128)2549297995355413924ULL << 64 | 4865540595714422341ULL;
    split128(g->state, join128(g->state) * mult + join128(g->inc));
}

/* numpy's pcg64_set_seed: seed words[0..1], stream words[2..3]. */
void pcg64_seed(pcg64 *g, const uint64_t *words)
{
    split128(g->state, 0);
    split128(g->inc, join128(words + 2) << 1 | 1);
    pcg64_step(g);
    split128(g->state, join128(g->state) + join128(words));
    pcg64_step(g);
    g->has_uint32 = g->uinteger = 0;
}

static uint64_t pcg64_next64(pcg64 *g)
{
    pcg64_step(g);
    uint64_t x = g->state[0] ^ g->state[1];
    unsigned rot = (unsigned)(g->state[0] >> 58);
    return (x >> rot) | (x << ((64 - rot) & 63));
}

/* A double in [0, 1) from the top 53 bits of the next output. */
static double pcg64_next_double(pcg64 *g)
{
    return (double)(pcg64_next64(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* The low half of a new output, or the high half of the last one when it
 * is still held. */
static uint32_t pcg64_next_uint32(pcg64 *g)
{
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return g->uinteger;
    }
    uint64_t next = pcg64_next64(g);
    g->has_uint32 = 1;
    g->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

/* out[i] = low + a uniform draw from 0..range, for i < n, as
 * Generator.integers(low, low + range + 1, n) draws int64s (numpy's
 * random_bounded_uint64_fill, unmasked): no draw for range 0, a bare
 * 32-bit draw for range 2^32 - 1, Lemire's (2019) multiply-and-reject
 * over 32-bit draws below it, a bare 64-bit output for range 2^64 - 1, and
 * the same rejection over 64-bit outputs otherwise. */
void pcg64_integers(pcg64 *g, int64_t low, uint64_t range, int64_t n, int64_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t value;
        if (range == 0) {
            value = 0;
        } else if (range == UINT32_MAX) {
            value = pcg64_next_uint32(g);
        } else if (range < UINT32_MAX) {
            uint32_t excl = (uint32_t)range + 1;
            uint64_t m = (uint64_t)pcg64_next_uint32(g) * excl;
            if ((uint32_t)m < excl) {
                uint32_t threshold = (UINT32_MAX - (uint32_t)range) % excl;
                while ((uint32_t)m < threshold)
                    m = (uint64_t)pcg64_next_uint32(g) * excl;
            }
            value = m >> 32;
        } else if (range == UINT64_MAX) {
            value = pcg64_next64(g);
        } else {
            uint64_t excl = range + 1;
            u128 m = (u128)pcg64_next64(g) * excl;
            if ((uint64_t)m < excl) {
                uint64_t threshold = (UINT64_MAX - range) % excl;
                while ((uint64_t)m < threshold)
                    m = (u128)pcg64_next64(g) * excl;
            }
            value = (uint64_t)(m >> 64);
        }
        out[i] = (int64_t)((uint64_t)low + value);
    }
}

/* word2vec's sigmoid table (Mikolov et al. 2013): the grid entries
 * 0..EXP_TABLE_SIZE hold sigmoid((2 i / EXP_TABLE_SIZE - 1) MAX_EXP); the two
 * entries after them are the saturated scores 0 and 1.  _kernels.py builds
 * the score table and its two log tables with the same layout. */
#define EXP_TABLE_SIZE 1000
#define MAX_EXP 6
#define SCORE_ZERO (EXP_TABLE_SIZE + 1)
#define SCORE_ONE (EXP_TABLE_SIZE + 2)
#define TABLE_LEN (EXP_TABLE_SIZE + 3)

/* Dot product in 8 fixed lanes, lane q summing the products j = q mod 8 in
 * order, then the lanes summed in a fixed tree. */
static float dot(const float *a, const float *b, int64_t n)
{
    float lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    int64_t j = 0;
    for (; j + 8 <= n; j += 8)
        for (int q = 0; q < 8; q++)
            lane[q] += a[j + q] * b[j + q];
    for (int q = 0; j + q < n; q++)
        lane[q] += a[j + q] * b[j + q];
    return ((lane[0] + lane[1]) + (lane[2] + lane[3]))
         + ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

/* dot in double: the same 8 lanes and tree, each product and sum in
 * double.  The product of two floats widened to double is exact. */
static double dot64(const double *a, const double *b, int64_t n)
{
    double lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    int64_t j = 0;
    for (; j + 8 <= n; j += 8)
        for (int q = 0; q < 8; q++)
            lane[q] += a[j + q] * b[j + q];
    for (int q = 0; j + q < n; q++)
        lane[q] += a[j + q] * b[j + q];
    return ((lane[0] + lane[1]) + (lane[2] + lane[3]))
         + ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

/* The cosine of a and b, dot64(a, b) / (sqrt(dot64(a, a)) sqrt(dot64(b, b))),
 * clamped to [-1, 1]; NaN when either vector is zero or has a non-finite
 * entry. */
double cosine(const double *a, const double *b, int64_t n)
{
    double aa = dot64(a, a, n), bb = dot64(b, b, n);
    if (aa == 0 || bb == 0)
        return NAN;
    double c = dot64(a, b, n) / (sqrt(aa) * sqrt(bb));
    return c < -1 ? -1 : c > 1 ? 1 : c;
}

/* y += a x, in runs of 8 that the compiler can turn into vector code
 * without changing any element's arithmetic. */
static void axpy(float *restrict y, float a, const float *restrict x, int64_t n)
{
    int64_t j = 0;
    for (; j + 8 <= n; j += 8)
        for (int q = 0; q < 8; q++)
            y[j + q] += a * x[j + q];
    for (; j < n; j++)
        y[j] += a * x[j];
}

/* The table entry of sigmoid(f): above MAX_EXP it is 1, below -MAX_EXP
 * (or NaN) 0, else the grid entry under f. */
static int score_index(float f)
{
    static const float scale = (float)EXP_TABLE_SIZE / (2 * MAX_EXP);
    if (f > MAX_EXP)
        return SCORE_ONE;
    if (!(f >= -MAX_EXP))
        return SCORE_ZERO;
    return (int)((f + MAX_EXP) * scale);
}

/* The first i with cdf[i] >= u, as np.searchsorted(cdf, u) gives it for
 * 0 <= u <= cdf[n - 1].  guide[j] (n + 1 entries) is that index for
 * u = j / n; rounding in u * n may start the scan one bucket off, so it
 * steps back as well as forward. */
static int64_t noise_row(const double *cdf, int64_t n, const int64_t *guide, double u)
{
    int64_t i = guide[(int64_t)(u * (double)n)];
    while (i > 0 && cdf[i - 1] >= u)
        i--;
    while (i < n - 1 && cdf[i] < u)
        i++;
    return i;
}

/* Train every center of the corpus once, in corpus order, and return the
 * epoch's mean loss per (center, row) pair, or -1 if scratch memory ran
 * out.
 *
 * Center i of a sentence of n ids with window w has k context rows, the
 * ids at i - w .. i + w inside the sentence except i itself, then k *
 * negatives noise rows, each mapped from the next double of `noise`.
 * Every row's score and the center's gradient are computed from the rows
 * as they were before the center's update; the row updates then go in row
 * order, so a repeated row takes each of its updates in turn.  The
 * learning rate decays linearly with the global center count, which
 * starts the epoch at `step`. */
double sgns_epoch(float *syn0, float *syn1, int64_t dim,
                  const int64_t *ids, const int64_t *lengths, int64_t n_sentences,
                  const int64_t *windows, pcg64 *noise, int64_t negatives,
                  const double *noise_cdf, int64_t vocab_size, const int64_t *guide,
                  const float *tables, double initial_lr, double min_lr, int64_t step,
                  int64_t total_steps)
{
    const float *score = tables, *log_score = tables + TABLE_LEN,
                *log_rest = tables + 2 * TABLE_LEN;
    int64_t longest = 0;
    for (int64_t s = 0; s < n_sentences; s++)
        if (lengths[s] > longest)
            longest = lengths[s];
    int64_t max_rows = (longest - 1) * (1 + negatives);
    int64_t *rows = malloc(max_rows * sizeof *rows);
    float *g = malloc(max_rows * sizeof *g);
    float *grad = malloc(dim * sizeof *grad);
    if (!rows || !g || !grad) {
        free(rows), free(g), free(grad);
        return -1.0;
    }

    double loss_sum = 0;
    int64_t n_pairs = 0;
    for (int64_t s = 0; s < n_sentences; s++) {
        int64_t n = lengths[s];
        for (int64_t i = 0; i < n; i++, step++) {
            int64_t lo = i - windows[i] > 0 ? i - windows[i] : 0;
            int64_t hi = i + windows[i] < n - 1 ? i + windows[i] : n - 1;
            int64_t k = 0;
            for (int64_t c = lo; c <= hi; c++)
                if (c != i)
                    rows[k++] = ids[c];
            int64_t n_rows = k * (1 + negatives);
            for (int64_t r = k; r < n_rows; r++)
                rows[r] = noise_row(noise_cdf, vocab_size, guide, pcg64_next_double(noise));

            double decayed = initial_lr * (1.0 - (double)step / (double)total_steps);
            float lr = (float)(decayed > min_lr ? decayed : min_lr);
            float *v = syn0 + ids[i] * dim;
            float loss = 0;
            for (int64_t j = 0; j < dim; j++)
                grad[j] = 0;
            for (int64_t r = 0; r < n_rows; r++) {
                const float *w = syn1 + rows[r] * dim;
                int t = score_index(dot(w, v, dim));
                float label = r < k ? 1.0f : 0.0f;
                loss += r < k ? log_score[t] : log_rest[t];
                g[r] = (label - score[t]) * lr;
                axpy(grad, g[r], w, dim);
            }
            for (int64_t r = 0; r < n_rows; r++)
                axpy(syn1 + rows[r] * dim, g[r], v, dim);
            axpy(v, 1.0f, grad, dim);  /* v += grad: 1 x is exact */
            loss_sum -= loss;
            n_pairs += n_rows;
        }
        ids += n;
        windows += n;
    }
    free(rows), free(g), free(grad);
    return loss_sum / (double)n_pairs;
}

/* The initial input vectors: syn0[i] = (float)((u_i - 0.5) / dim) for
 * i < n, u_i the next double of g, as numpy's
 * ((Generator.random(n) - 0.5) / dim).astype(float32) gives them. */
void sgns_init(float *syn0, int64_t n, int64_t dim, pcg64 *g)
{
    for (int64_t i = 0; i < n; i++)
        syn0[i] = (float)((pcg64_next_double(g) - 0.5) / (double)dim);
}

/* Jensen-Shannon divergence in base 2 of the probability vectors p and q
 * of length n: half the sum over i of p_i log2(2 p_i / (p_i + q_i)), over
 * the i with p_i > 0 in index order, plus half the same sum with p and q
 * swapped, clipped to [0, 1].  2 p_i / (p_i + q_i) is finite where
 * p_i / m_i with the mixture m_i = (p_i + q_i) / 2 is not: halving the
 * smallest subnormal underflows to 0. */
double jsd(const double *p, const double *q, int64_t n)
{
    double kl_p = 0, kl_q = 0;
    for (int64_t i = 0; i < n; i++) {
        double total = p[i] + q[i];
        if (p[i] > 0)
            kl_p += p[i] * log2(2 * p[i] / total);
        if (q[i] > 0)
            kl_q += q[i] * log2(2 * q[i] / total);
    }
    double value = 0.5 * kl_p + 0.5 * kl_q;
    return value < 0 ? 0 : value > 1 ? 1 : value;
}

/* numpy's random_interval for max < 2^32: a uniform draw from 0..max,
 * rejecting the 32-bit draws masked to max's bit width that exceed max. */
static uint32_t random_interval(pcg64 *g, uint32_t max)
{
    uint32_t mask = max, value;
    if (max == 0)
        return 0;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    while ((value = pcg64_next_uint32(g) & mask) > max)
        ;
    return value;
}

/* order = 0..n-1 shuffled as Generator.permutation(n) shuffles it: the
 * Fisher-Yates swaps of Generator.shuffle, i from n - 1 down to 1, each
 * with the position random_interval(i) draws.  n <= 2^32, so every bound
 * fits a 32-bit draw, as it does in numpy. */
void permutation(int64_t *order, int64_t n, pcg64 *g)
{
    for (int64_t i = 0; i < n; i++)
        order[i] = i;
    for (int64_t i = n - 1; i > 0; i--) {
        int64_t j = random_interval(g, (uint32_t)i);
        int64_t t = order[i];
        order[i] = order[j];
        order[j] = t;
    }
}

/* The divergence baseline of one group: n_splits greedy half splits of its
 * n units, out[s] the JSD of split s's two halves' idiom counts.  Returns 0;
 * -1 if scratch memory ran out; or 1 + 2 s + h when half h (0 the first, 1
 * the second) of split s holds no idiom, and then stops.
 *
 * Unit u has token_counts[u] tokens and the idioms idioms[starts[u]] ..
 * idioms[starts[u + 1] - 1], each an index below n_support.  Split s walks
 * the next permutation(n) of g, as the kernel draws them in turn: unit
 * order[i] joins the first half while the first half's (tokens, units) is
 * lexicographically <= the second's, else the second.  The walk's int64 key is tokens_0 - tokens_1 scaled by
 * 2n + 1 plus units_0 - units_1, so key <= 0 exactly when the first half is
 * not ahead; the caller bounds the token counts so that it cannot
 * overflow.  The first half's idioms are counted, the second's are the
 * group total minus them, and each half is divided by its total before
 * jsd. */
int64_t split_baseline(const int64_t *token_counts, int64_t n, const int64_t *starts,
                       const int64_t *idioms, int64_t n_support, int64_t n_splits,
                       pcg64 *g, double *out)
{
    int64_t *order = malloc(n * sizeof *order);
    int64_t *total = calloc(n_support, sizeof *total);
    int64_t *first = malloc(n_support * sizeof *first);
    double *p = malloc(n_support * sizeof *p);
    double *q = malloc(n_support * sizeof *q);
    int64_t status = 0;
    if (!order || !total || !first || !p || !q) {
        status = -1;
        goto done;
    }
    for (int64_t k = starts[0]; k < starts[n]; k++)
        total[idioms[k]]++;
    int64_t all = starts[n] - starts[0], scale = 2 * n + 1;

    for (int64_t s = 0; s < n_splits; s++) {
        permutation(order, n, g);
        for (int64_t c = 0; c < n_support; c++)
            first[c] = 0;
        int64_t key = 0, in_first = 0;
        for (int64_t i = 0; i < n; i++) {
            int64_t u = order[i], step = token_counts[u] * scale + 1;
            if (key <= 0) {
                key += step;
                for (int64_t k = starts[u]; k < starts[u + 1]; k++)
                    first[idioms[k]]++;
                in_first += starts[u + 1] - starts[u];
            } else {
                key -= step;
            }
        }
        if (in_first == 0 || in_first == all) {
            status = 1 + 2 * s + (in_first != 0);
            goto done;
        }
        for (int64_t c = 0; c < n_support; c++) {
            p[c] = (double)first[c] / (double)in_first;
            q[c] = (double)(total[c] - first[c]) / (double)(all - in_first);
        }
        out[s] = jsd(p, q, n_support);
    }
done:
    free(order), free(total), free(first), free(p), free(q);
    return status;
}
