/* The kernels of the ``c`` backend (c_backend.py), numpy_ref.py byte for
 * byte: every flop takes numpy_ref's operands in numpy_ref's order, and
 * each output slot is written by one thread, so the team size cannot
 * change a bit.  docs/kernels.md lists the rules. */
#include <math.h>
#include <stdint.h>
#include <omp.h>

/* for (i = lo; i < hi; i++) BODY on nthreads threads.  One thread runs a
 * plain loop that enters no OpenMP construct: libgomp's team does not
 * survive fork, and forked workers call in here. */
#define FOR_ROWS(i, lo, hi, ...)                                          \
    if (nthreads > 1) {                                                   \
        _Pragma("omp parallel for num_threads(nthreads) schedule(dynamic,64)")\
        for (int64_t i = lo; i < hi; i++) __VA_ARGS__                     \
    } else {                                                              \
        for (int64_t i = lo; i < hi; i++) __VA_ARGS__                     \
    }

#define BLOCK 64  /* pairs per vectorized block of a force row */

int repro_max_threads(void) { return omp_get_max_threads(); }

/* np.maximum(a, b): NaN in a propagates (C's fmax would drop it). */
static inline double maximum(double a, double b) {
    return ((a >= b) | (a != a)) ? a : b;
}

/* One CSR row of the Cortex3D force (numpy_ref._cortex3d + bincount):
 * each block of pairs is evaluated by a vectorizable loop, then summed in
 * CSR order from +0.0 by a scalar one. */
static void force_row(int64_t i, const double *pos, const double *dia,
                      const int64_t *indptr, const int64_t *indices,
                      double repulsion, double attraction, double *net,
                      int64_t *nz) {
    const double xi = pos[3 * i], yi = pos[3 * i + 1], zi = pos[3 * i + 2];
    const double di = dia[i];
    double sx = 0.0, sy = 0.0, sz = 0.0, fx[BLOCK], fy[BLOCK], fz[BLOCK];
    double mag[BLOCK], dist[BLOCK];
    int64_t count = 0;
    for (int64_t s = indptr[i]; s < indptr[i + 1]; s += BLOCK) {
        const int64_t *js = indices + s;
        const int64_t left = indptr[i + 1] - s;
        const int64_t m = left < BLOCK ? left : BLOCK;
        for (int64_t t = 0; t < m; t++) {
            const int64_t j = js[t];
            const double dx = xi - pos[3 * j], dy = yi - pos[3 * j + 1],
                         dz = zi - pos[3 * j + 2], dj = dia[j];
            const double d = sqrt((dx * dx + dy * dy) + dz * dz);
            const double r_sum = (di + dj) / 2.0, overlap = r_sum - d;
            const double r_eff = (di * dj) / (2.0 * maximum(r_sum, 1e-12));
            const double pos_overlap = maximum(overlap, 0.0);
            const double m_t = repulsion * pos_overlap
                               - attraction * sqrt(r_eff * pos_overlap);
            mag[t] = overlap > 0.0 ? m_t : 0.0;  /* a select, not a product */
            dist[t] = d;
            fx[t] = mag[t] * (dx / d);
            fy[t] = mag[t] * (dy / d);
            fz[t] = mag[t] * (dz / d);
        }
        const double bx = sx, by = sy, bz = sz;
        for (int64_t t = 0; t < m; t++) {
            if (dist[t] < 1e-12) {  /* coincident centres: +-x by i < j */
                fx[t] = mag[t] * (i < js[t] ? 1.0 : -1.0);
                fy[t] = mag[t] * 0.0;
                fz[t] = mag[t] * 0.0;
            }
            sx += fx[t], sy += fy[t], sz += fz[t];
            count += ((fabs(fx[t]) + fabs(fy[t])) + fabs(fz[t])) > 1e-12;
        }
        if (sx != sx || sy != sy || sz != sz) {
            /* bincount's "sum += f" keeps the sum's NaN when both are NaN;
             * the compiler may commute a +, so redo the block spelled out. */
            sx = bx, sy = by, sz = bz;
            for (int64_t t = 0; t < m; t++) {
                sx = sx != sx ? sx : sx + fx[t];
                sy = sy != sy ? sy : sy + fy[t];
                sz = sz != sz ? sz : sz + fz[t];
            }
        }
    }
    net[3 * i] = sx, net[3 * i + 1] = sy, net[3 * i + 2] = sz;
    nz[i] = count;
}

/* Rows [lo, hi) into net (n, 3) and nz (n,); active (NULL = everyone)
 * zeroes the rows it excludes.  Returns the pairs evaluated. */
int64_t repro_force_rows(const double *pos, const double *dia,
                         const int64_t *indptr, const int64_t *indices,
                         const uint8_t *active, double repulsion,
                         double attraction, double *net, int64_t *nz,
                         int64_t lo, int64_t hi, int nthreads) {
    FOR_ROWS(i, lo, hi, {
        if (active && !active[i]) {
            net[3 * i] = net[3 * i + 1] = net[3 * i + 2] = 0.0;
            nz[i] = 0;
        } else {
            force_row(i, pos, dia, indptr, indices, repulsion, attraction,
                      net, nz);
        }
    })
    int64_t pairs = 0;
    for (int64_t i = lo; i < hi; i++)
        if (!active || active[i]) pairs += indptr[i + 1] - indptr[i];
    return pairs;
}

/* Refilter, count pass: keep[k] = |x_i - x_j|^2 <= r2, as the grid filter
 * computes it, then new_indptr as the prefix sum.  Returns the kept total. */
int64_t repro_refilter_count(const double *pos, const int64_t *indptr,
                             const int64_t *indices, int64_t n, double r2,
                             uint8_t *keep, int64_t *new_indptr,
                             int nthreads) {
    FOR_ROWS(i, 0, n, {
        const double xi = pos[3 * i], yi = pos[3 * i + 1], zi = pos[3 * i + 2];
        int64_t kept = 0;
        for (int64_t k = indptr[i]; k < indptr[i + 1]; k++) {
            const int64_t j = indices[k];
            const double dx = xi - pos[3 * j], dy = yi - pos[3 * j + 1],
                         dz = zi - pos[3 * j + 2];
            kept += keep[k] = ((dx * dx + dy * dy) + dz * dz) <= r2;
        }
        new_indptr[i + 1] = kept;
    })
    new_indptr[0] = 0;
    for (int64_t i = 0; i < n; i++) new_indptr[i + 1] += new_indptr[i];
    return new_indptr[n];
}

/* Refilter, fill pass: row i stores each candidate at its cursor, advances
 * past kept ones and stops once its last kept entry is in, so every store
 * lands in the row's own range and ends up a kept entry.  (Run to the end
 * of the superset row, it would write one slot into the next row.) */
void repro_refilter_fill(const int64_t *indptr, const int64_t *indices,
                         const uint8_t *keep, int64_t n,
                         const int64_t *new_indptr, int64_t *out_indices,
                         int64_t *out_qi, int nthreads) {
    FOR_ROWS(i, 0, n, {
        int64_t w = new_indptr[i];
        for (int64_t k = indptr[i]; w < new_indptr[i + 1]; k++) {
            out_indices[w] = indices[k];
            out_qi[w] = i;
            w += keep[k];
        }
    })
}

/* The Neumann-clamped 7-point stencil, c -> out, one plane per task; per
 * voxel numpy_ref.diffuse's ((((x+ + x-) + y+) + y-) + z+) + z-, - 6c,
 * / h^2, * D, - decay c, * dt, c +.  The two z faces are peeled off the
 * row so that its interior loop vectorizes. */
#define VOXEL(k, kp, km)                                                   \
    o[k] = x[k] + ((((((((xp[k] + xm[k]) + yp[k]) + ym[k]) + x[kp]) + x[km]) \
                      - x[k] * 6.0) / h2) * d - x[k] * decay) * dt
void repro_diffuse(const double *c, double *out, int64_t nx, int64_t ny,
                   int64_t nz, double h2, double d, double decay, double dt,
                   int nthreads) {
    const int64_t plane = ny * nz, last = nz - 1;
    FOR_ROWS(i, 0, nx, {
        for (int64_t j = 0; j < ny; j++) {
            const double *x = c + i * plane + j * nz;
            const double *xp = x + (i + 1 < nx ? plane : 0),
                         *xm = x - (i > 0 ? plane : 0),
                         *yp = x + (j + 1 < ny ? nz : 0),
                         *ym = x - (j > 0 ? nz : 0);
            double *o = out + i * plane + j * nz;
            VOXEL(0, last ? 1 : 0, 0);
            for (int64_t k = 1; k < last; k++) VOXEL(k, k + 1, k - 1);
            if (last) VOXEL(last, last, last - 1);
        }
    })
}
