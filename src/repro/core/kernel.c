/* The immediate local-move loop behind kernel.local_moves (see kernel.py).
 *
 * Built with -ffp-contract=off: every delta is rounded operation by
 * operation, as in the numpy reference (tests.helpers.numpy_local_moves),
 * so no fused multiply-add changes a result.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define BAD_INDEX -1
#define NO_MEMORY -2

/* Visit the rows listed in order[0..n_order); move each vertex to its best
 * cluster, and when apply is nonzero update a[] and K[] at once. Row i holds
 * the out-edges dst/w[indptr[i]..indptr[i+1]) of vertex verts[i]. a and k
 * have n entries, K has n_labels. With apply zero nothing is written to a
 * or K, and a detach label U + v may lie past K. Writes the moves to
 * mv_v/mv_c/mv_d and returns their count, or BAD_INDEX if an index is out
 * of range (a and K are then partly updated), or NO_MEMORY. */
int64_t local_moves(
    const int64_t *order, int64_t n_order,
    const int64_t *indptr, const int64_t *verts, int64_t n_rows,
    const int64_t *dst, const double *w, int64_t n_edges,
    int64_t *a, const double *k, int64_t n,
    double *K, int64_t n_labels,
    double lam, int64_t U, double tol, int64_t apply,
    int64_t *mv_v, int64_t *mv_c, double *mv_d)
{
    /* Weight from the current vertex to each neighbouring cluster; seen[c]
     * is the visit that last touched acc[c], touched lists those clusters. */
    double *acc = malloc((size_t)n_labels * sizeof *acc + 1);
    int64_t *seen = calloc((size_t)n_labels + 1, sizeof *seen);
    int64_t *touched = malloc((size_t)n_labels * sizeof *touched + 1);
    int64_t moves = NO_MEMORY;
    if (!acc || !seen || !touched)
        goto done;
    moves = 0;
    for (int64_t t = 0; t < n_order; t++) {
        int64_t i = order[t];
        if (i < 0 || i >= n_rows)
            goto bad;
        int64_t lo = indptr[i], hi = indptr[i + 1];
        if (lo == hi)
            continue;
        int64_t v = verts[i];
        if (lo < 0 || hi < lo || hi > n_edges || v < 0 || v >= n)
            goto bad;
        int64_t stamp = t + 1, n_touched = 0;
        for (int64_t r = lo; r < hi; r++) {
            int64_t d = dst[r];
            if (d < 0 || d >= n)
                goto bad;
            int64_t c = a[d];
            if (c < 0 || c >= n_labels)
                goto bad;
            if (seen[c] != stamp) {
                seen[c] = stamp;
                acc[c] = 0.0;
                touched[n_touched++] = c;
            }
            acc[c] += w[r];
        }
        int64_t cv = a[v];
        if (cv < 0 || cv >= n_labels)
            goto bad;
        double kv = k[v];
        double lk = lam * kv;
        double base = (seen[cv] == stamp ? acc[cv] : 0.0) - lk * (K[cv] - kv);
        int64_t best_c = -1;
        double best_d = -INFINITY;
        for (int64_t j = 0; j < n_touched; j++) {
            int64_t c = touched[j];
            if (c == cv)
                continue;
            double delta = (acc[c] - lk * K[c]) - base;
            if (delta > best_d || (delta == best_d && c < best_c)) {
                best_c = c;
                best_d = delta;
            }
        }
        /* Detach into the fresh singleton U + v only when strictly better:
         * a real label can itself be >= U (a singleton made earlier). */
        if (-base > best_d) {
            best_c = U + v;
            best_d = -base;
        }
        if (best_d > tol) {
            if (apply) {
                if (best_c < 0 || best_c >= n_labels)
                    goto bad;
                K[cv] -= kv;
                K[best_c] += kv;
                a[v] = best_c;
            }
            mv_v[moves] = v;
            mv_c[moves] = best_c;
            mv_d[moves] = best_d;
            moves++;
        }
    }
    goto done;
bad:
    moves = BAD_INDEX;
done:
    free(acc);
    free(seen);
    free(touched);
    return moves;
}
