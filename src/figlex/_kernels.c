/* The two sequential loops of figlex, in C: skip-gram negative-sampling
 * (SGNS) training over one epoch of the corpus, and the greedy half split
 * of one permutation.  _kernels.py builds this file and loads it with
 * ctypes.  The SGNS kernel draws its noise doubles itself, through the
 * next_double of numpy's generator interface (Generator.bit_generator.ctypes).
 *
 * The arithmetic is IEEE single (SGNS) and int64 (the split walk) in a
 * fixed order, so the results are the same bytes on every CPU.  Compile
 * with -ffp-contract=off and without -ffast-math: a fused multiply-add or
 * a reassociated sum would change them.  No libm function is called.
 */

#include <stdint.h>
#include <stdlib.h>

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
 * negatives noise rows, each mapped from the next double that
 * next_double(noise_state) returns: numpy's generator interface, the
 * function Generator.random fills its output with.  The kernel takes no
 * lock, so nothing else may draw from that generator during the call.
 * Every row's score and the center's gradient are computed from the rows
 * as they were before the center's update; the row updates then go in row
 * order, so a repeated row takes each of its updates in turn.  The
 * learning rate decays linearly with the global center count, which
 * starts the epoch at `step`. */
double sgns_epoch(float *syn0, float *syn1, int64_t dim,
                  const int64_t *ids, const int64_t *lengths, int64_t n_sentences,
                  const int64_t *windows, double (*next_double)(void *), void *noise_state,
                  int64_t negatives, const double *noise_cdf, int64_t vocab_size,
                  const int64_t *guide, const float *tables, double initial_lr,
                  double min_lr, int64_t step, int64_t total_steps)
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
                rows[r] = noise_row(noise_cdf, vocab_size, guide, next_double(noise_state));

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

/* The greedy half split of one permutation: position perm[i] joins the
 * first half while the first half's (tokens, posts) is lexicographically
 * <= the second's, else the second.  key is tokens_0 - tokens_1 scaled by
 * 2n + 1 plus posts_0 - posts_1, and steps[j] is token_counts[j] * (2n + 1)
 * + 1, so key <= 0 exactly when the first half is not ahead. */
void split_walk(const int64_t *steps, const int64_t *perm, int64_t n, uint8_t *first)
{
    int64_t key = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t j = perm[i];
        first[j] = key <= 0;
        key += first[j] ? steps[j] : -steps[j];
    }
}
