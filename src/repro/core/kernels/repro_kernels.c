/* Native kernel source for the repro compiled backend.
 *
 * Compiled at activation time by repro/core/kernels/_native.py with
 * whatever system compiler is present (cc/gcc/clang) and bound via
 * ctypes.  Shipped as package data so installed trees (not just source
 * checkouts) can build the backend.
 *
 * Bit-identity discipline: every recurrence is written as the same
 * sequence of individually-rounded multiplies and adds the NumPy
 * reference performs, and the build uses -O3 -ffp-contract=off (never
 * -ffast-math) so no FMA contraction or reassociation changes rounding.
 * The sweep's fold runs from one buffer into another, so it vectorises,
 * and on x86-64 glibc it is cloned for AVX-512F, AVX2 and the baseline
 * ISA (see fold_into).  The activation self-check compares every entry
 * point bitwise against the NumPy reference before the backend is
 * allowed to serve.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* NumPy's pairwise summation, scalar form: 8-way unrolled base case up
 * to 128 elements, recursive split at n/2 rounded down to a multiple of
 * 8.  Must stay bit-identical to np.sum on the host (checked at
 * activation). */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        int64_t i = 8;
        for (; i < n - (n % 8); i += 8) {
            r0 += a[i + 0]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
            r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

static double clip01(double t)
{
    return t < 0.0 ? 0.0 : (t > 1.0 ? 1.0 : t);
}

/* Exposed for the activation self-check's summation battery. */
double k_pairwise(const double *a, int64_t n)
{
    return pairwise_sum(a, n);
}

/* In-place Poisson-binomial factor fold: pmf[0..top] gains one factor e.
 * Descending update reads only pre-update values, matching the NumPy
 * whole-slice assignment; entry top+1 is zero beforehand so the new top
 * entry rounds as pmf[top]*e exactly (0*(1-e) + x*e == x*e bitwise for
 * finite x >= 0).  k_convolve's fold; the sweep folds with fold_into. */
static void fold_factor(double *pmf, int64_t top, double e)
{
    double c = 1.0 - e;
    for (int64_t j = top + 1; j >= 1; j--)
        pmf[j] = pmf[j] * c + pmf[j - 1] * e;
    pmf[0] = pmf[0] * c;
}

/* The sweep's fold is cloned per vector ISA where the toolchain can pick
 * a clone at load time (GNU ifunc: x86-64 glibc).  Each lane rounds the
 * same multiply, multiply and add as the scalar loop, and
 * -ffp-contract=off holds in every clone, so the bits do not depend on
 * the clone the CPU gets; the activation self-check verifies the one it
 * got. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define FOLD_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef FOLD_CLONES
#define FOLD_CLONES
#endif

/* Two-buffer factor fold: out[0..top+1] is in[0..top] with one factor e.
 * in[top+1] is zero, so the new top entry rounds as in[top]*e exactly, as
 * in fold_factor; the buffers do not overlap, so the loop vectorises. */
FOLD_CLONES
static void fold_into(const double *restrict in, double *restrict out,
                      int64_t top, double e)
{
    double c = 1.0 - e;
    out[0] = in[0] * c;
    for (int64_t j = 1; j <= top + 1; j++)
        out[j] = in[j] * c + in[j - 1] * e;
}

/* Odd-prefix JER sweep.  eps: (b, n) row-major; jers: (b, (n+1)/2);
 * work: 2*(n+2) scratch doubles, two pmf buffers that swap after each
 * factor.  Zeroed per row: entry top+1 of the buffer read at step top
 * has never been written. */
void k_sweep(const double *eps, int64_t b, int64_t n, double *jers,
             double *work)
{
    int64_t kcols = (n + 1) / 2;
    for (int64_t r = 0; r < b; r++) {
        const double *row = eps + r * n;
        double *in = work, *out = work + (n + 2);
        memset(work, 0, (size_t)(2 * (n + 2)) * sizeof(double));
        in[0] = 1.0;
        for (int64_t idx = 0; idx < n; idx++) {
            fold_into(in, out, idx, row[idx]);
            double *folded = out;
            out = in;
            in = folded;
            if ((idx & 1) == 0) {
                int64_t m = idx + 1;            /* prefix length, odd */
                int64_t th = (m + 1) / 2;       /* majority threshold */
                double t = pairwise_sum(in + th, m + 1 - th);
                jers[r * kcols + idx / 2] = clip01(t);
            }
        }
    }
}

/* Extend one pmf (length n) by each of k alternative factors.
 * rows: (k, n+1).  A helper of k_pay_scan and k_bb_search, checked
 * through their self-check batteries. */
static void k_extend_block(const double *base, int64_t n, const double *eps,
                           int64_t k, double *rows)
{
    for (int64_t r = 0; r < k; r++) {
        double e = eps[r];
        double c = 1.0 - e;
        double *row = rows + r * (n + 1);
        row[0] = base[0] * c;
        for (int64_t j = 1; j < n; j++)
            row[j] = base[j] * c + base[j - 1] * e;
        row[n] = base[n - 1] * e;
    }
}

/* Fold k factors into out in place.  out has length top0+1+k with the
 * base pmf in out[0..top0] and zeros above.  k_bb_search's bound; bound
 * by ctypes only so the self-check can test it on its own. */
void k_convolve(double *out, int64_t top0, const double *eps, int64_t k)
{
    int64_t top = top0;
    for (int64_t f = 0; f < k; f++) {
        fold_factor(out, top, eps[f]);
        top++;
    }
}

/* PayALG paper-variant pairing scan (Algorithm 4 inner loop).
 *
 * Replicates the block-scan in core/selection/pay.py exactly: walk
 * candidates in requirement order from scan_from; the first affordable
 * candidate becomes the buffered partner; each later candidate q is
 * tried as the pair (partner, q) when (req[q] + req[partner]) + acc fits
 * the budget (left-associated adds, matching the NumPy broadcast order);
 * the trial extends the incumbent pmf by both error rates and compares
 * the clipped majority tail against the incumbent JER.  Admission
 * adopts the trial pmf, accumulates cost in the same float order, and
 * resets the partner; scanning resumes at q+1.
 *
 * eps/req: (n,) candidate columns.  pmf: in/out incumbent pmf buffer of
 * capacity n+1 with pmf_len valid entries.  state: in/out
 * {accumulated, current_jer}.  pairs: out, capacity n int64s, receives
 * admitted (partner, q) index pairs.  counters: out
 * {pairs_considered, jer_evaluations} (counting trials actually
 * scored, exactly like the NumPy block path).  base2/row: scratch, each
 * of capacity n+2.  Returns the number of admitted pairs. */
int64_t k_pay_scan(const double *eps, const double *req, int64_t n,
                   double budget, int64_t scan_from, double *pmf,
                   int64_t pmf_len, double *state, int64_t *pairs,
                   int64_t *counters, double *base2, double *row)
{
    double acc = state[0];
    double cur = state[1];
    int64_t i = scan_from;
    int64_t partner = -1;
    int base2_valid = 0;
    int64_t npairs = 0;
    int64_t considered = 0, evals = 0;

    while (i < n) {
        if (partner < 0) {
            if (req[i] + acc <= budget)
                partner = i;
            i++;
            continue;
        }
        double cost = (req[i] + req[partner]) + acc;
        if (cost <= budget) {
            if (!base2_valid) {
                k_extend_block(pmf, pmf_len, eps + partner, 1, base2);
                base2_valid = 1;
            }
            k_extend_block(base2, pmf_len + 1, eps + i, 1, row);
            int64_t rowlen = pmf_len + 2;
            /* threshold = (len(selected) + 3) // 2 with
             * len(selected) = pmf_len - 1. */
            int64_t threshold = rowlen / 2;
            double t = clip01(pairwise_sum(row + threshold,
                                           rowlen - threshold));
            considered++;
            evals++;
            if (t <= cur) {
                pairs[2 * npairs + 0] = partner;
                pairs[2 * npairs + 1] = i;
                npairs++;
                acc = (req[i] + req[partner]) + acc;
                memcpy(pmf, row, (size_t)rowlen * sizeof(double));
                pmf_len = rowlen;
                cur = t;
                partner = -1;
                base2_valid = 0;
            }
        }
        i++;
    }
    state[0] = acc;
    state[1] = cur;
    counters[0] = considered;
    counters[1] = evals;
    return npairs;
}

/* Exact branch and bound (core/selection/exact.py, _bb_search).
 *
 * One search per odd jury size k <= limit, visiting nodes in the same
 * order and applying the same tests as the Python depth-first search:
 * count pruning, cost pruning against the suffix-cheapest table, then
 * (once an incumbent exists) the monotonicity bound that folds the
 * next `need` error rates with k_convolve's recurrence.  The "take"
 * branch extends the pmf like extend_pmf; the "skip" branch is the
 * loop's next iteration, so recursion only deepens on a take and stays
 * within limit + 1 frames.  Ties follow _improves: JER within 1e-15,
 * then the smaller jury, then the lexicographically smaller id tuple,
 * compared here through each candidate's rank in id order. */
typedef struct {
    const double *eps, *req;
    const int64_t *rank;
    int64_t n, limit, k, threshold;
    double budget_tol;          /* budget + 1e-12 */
    int use_bound;
    const double *cheapest;     /* (n+1, limit+1): row i, entry m */
    double *pmfs;               /* pmf of depth p at p*(p+1)/2, p+1 long */
    double *bound;              /* limit+1 scratch */
    int64_t *chosen;
    int64_t *best;
    int64_t best_len;           /* 0 until an incumbent exists */
    double best_jer;
    int64_t *counters;          /* nodes, evaluations, checks, pruned */
} bb_ctx;

static int bb_improves(const bb_ctx *c, double jer)
{
    if (jer < c->best_jer - 1e-15)
        return 1;
    double d = jer - c->best_jer;
    if (d < 0.0) d = -d;
    if (d <= 1e-15 && c->best_len > 0) {
        if (c->k != c->best_len)
            return c->k < c->best_len;
        for (int64_t i = 0; i < c->k; i++) {
            int64_t a = c->rank[c->chosen[i]], b = c->rank[c->best[i]];
            if (a != b)
                return a < b;
        }
    }
    return 0;
}

static void bb_dfs(bb_ctx *c, int64_t index, int64_t picked, double cost)
{
    const double *pmf = c->pmfs + picked * (picked + 1) / 2;
    for (;; index++) {
        c->counters[0]++;
        if (picked == c->k) {
            if (cost > c->budget_tol)
                return;
            c->counters[1]++;
            double jer = clip01(pairwise_sum(pmf + c->threshold,
                                             c->k + 1 - c->threshold));
            if (bb_improves(c, jer)) {
                memcpy(c->best, c->chosen, (size_t)c->k * sizeof(int64_t));
                c->best_len = c->k;
                c->best_jer = jer;
            }
            return;
        }
        int64_t need = c->k - picked;
        if (index >= c->n || c->n - index < need)
            return;
        if (cost + c->cheapest[index * (c->limit + 1) + need] > c->budget_tol)
            return;
        if (c->use_bound && c->best_len > 0) {
            c->counters[2]++;
            memcpy(c->bound, pmf, (size_t)(picked + 1) * sizeof(double));
            memset(c->bound + picked + 1, 0, (size_t)need * sizeof(double));
            k_convolve(c->bound, picked, c->eps + index, need);
            double t = clip01(pairwise_sum(c->bound + c->threshold,
                                           c->k + 1 - c->threshold));
            if (t >= c->best_jer - 1e-15) {
                c->counters[3]++;
                return;
            }
        }
        c->chosen[picked] = index;
        k_extend_block(pmf, picked + 1, c->eps + index, 1,
                       c->pmfs + (picked + 1) * (picked + 2) / 2);
        bb_dfs(c, index + 1, picked + 1, cost + c->req[index]);
    }
}

/* eps/req/rank: (n,) candidate columns in search order.  budget may be
 * +inf.  jer: out, the incumbent's JER.  best_idx: out, capacity limit.
 * counters: out {nodes_visited, jer_evaluations, bound_checks,
 * pruned_by_bound}.  work: (n+1)*(limit+1) + (limit+1)*(limit+2)/2 +
 * (limit+1) + n doubles; iwork: limit int64s.  Requires
 * 0 <= limit <= n.  Returns the incumbent's size, 0 when none. */
int64_t k_bb_search(const double *eps, const double *req,
                    const int64_t *rank, int64_t n, int64_t limit,
                    double budget, int64_t use_bound, double *jer,
                    int64_t *best_idx, int64_t *counters, double *work,
                    int64_t *iwork)
{
    int64_t w = limit + 1;
    double *cheapest = work;
    double *pmfs = cheapest + (n + 1) * w;
    double *bound = pmfs + w * (w + 1) / 2;
    double *suffix = bound + w;

    /* cheapest[i][m]: the m smallest requirements of req[i:], summed in
     * ascending order like np.cumsum over np.sort (entry 0 is 0.0).
     * suffix[] holds req[i:] sorted, grown by insertion from the end. */
    for (int64_t i = n; i >= 0; i--) {
        int64_t len = n - i;
        if (i < n) {
            double v = req[i];
            int64_t j = len - 1;
            while (j > 0 && suffix[j - 1] > v) {
                suffix[j] = suffix[j - 1];
                j--;
            }
            suffix[j] = v;
        }
        double *row = cheapest + i * w;
        int64_t top = len < limit ? len : limit;
        row[0] = 0.0;
        if (top >= 1)
            row[1] = suffix[0];
        for (int64_t m = 2; m <= top; m++)
            row[m] = row[m - 1] + suffix[m - 1];
    }

    bb_ctx c;
    c.eps = eps;
    c.req = req;
    c.rank = rank;
    c.n = n;
    c.limit = limit;
    c.budget_tol = budget + 1e-12;
    c.use_bound = use_bound != 0;
    c.cheapest = cheapest;
    c.pmfs = pmfs;
    c.bound = bound;
    c.chosen = iwork;
    c.best = best_idx;
    c.best_len = 0;
    c.best_jer = INFINITY;
    c.counters = counters;
    for (int f = 0; f < 4; f++) counters[f] = 0;
    pmfs[0] = 1.0;
    for (int64_t k = 1; k <= limit; k += 2) {
        c.k = k;
        c.threshold = (k + 1) / 2;
        bb_dfs(&c, 0, 0, 0.0);
    }
    *jer = c.best_jer;
    return c.best_len;
}
