/* The kernels of the ``c`` backend (c_backend.py), numpy_ref.py byte for
 * byte: every flop takes numpy_ref's operands in numpy_ref's order, and
 * each output slot is written by one thread, so the team size cannot
 * change a bit.  docs/kernels.md lists the rules. */
#include <math.h>
#include <sched.h>
#include <stddef.h>
#include <stdint.h>
#include <omp.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

/* Set as FOR_ROWS first runs threaded; a fork copies it. */
static int team_used;

/* for (i = lo; i < hi; i++) BODY on nthreads threads.  One thread runs a
 * plain loop that enters no OpenMP construct: libgomp's team does not
 * survive fork, so a child forked after a threaded call (team_used)
 * calls in here on one thread. */
#define FOR_ROWS(i, lo, hi, ...)                                          \
    if (nthreads > 1) {                                                   \
        __atomic_store_n(&team_used, 1, __ATOMIC_RELAXED);                \
        _Pragma("omp parallel for num_threads(nthreads) schedule(dynamic,64)")\
        for (int64_t i = lo; i < hi; i++) __VA_ARGS__                     \
    } else {                                                              \
        for (int64_t i = lo; i < hi; i++) __VA_ARGS__                     \
    }

#define BLOCK 64  /* pairs per vectorized block of a force row */

/* The stencil is built twice on x86-64 GCC / Clang with ifunc support, for
 * AVX2 and for the baseline ISA, and the loader picks the clone the CPU
 * runs.  Only the vector width differs: -ffp-contract=off rules out FMA
 * and + - * / are correctly rounded at any width, so both clones write the
 * same bytes -- save which NaN survives a NaN + NaN of different signs,
 * which follows the operand order each build picked, as in numpy
 * (tests/test_c_backend.py builds this file with STENCIL_CLONES defined
 * empty and compares).  Elsewhere the macro is empty and the library is
 * the baseline build. */
#ifndef STENCIL_CLONES
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define STENCIL_CLONES __attribute__((target_clones("avx2", "default")))
#define STENCIL_ISA (__builtin_cpu_supports("avx2") ? "avx2" : "baseline")
#endif
#endif
#endif
#ifndef STENCIL_CLONES
#define STENCIL_CLONES
#endif
#ifndef STENCIL_ISA
#define STENCIL_ISA "baseline"
#endif

/* The stencil clone the loader chose: "avx2" or "baseline". */
const char *repro_stencil_isa(void) { return STENCIL_ISA; }

int repro_max_threads(void) { return omp_get_max_threads(); }

/* Whether FOR_ROWS, the only OpenMP construct here, ever ran threaded in
 * this process or before the fork that made it. */
int repro_team_used(void) {
    return __atomic_load_n(&team_used, __ATOMIC_RELAXED);
}

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
                         int nthreads) {
    FOR_ROWS(i, 0, n, {
        int64_t w = new_indptr[i];
        for (int64_t k = indptr[i]; w < new_indptr[i + 1]; k++) {
            out_indices[w] = indices[k];
            w += keep[k];
        }
    })
}

/* Rows [lo, hi) of numpy_ref.displace, one row at a time on one thread:
 * disp = f * dt, norm = sqrt((x*x + y*y) + z*z), disp *= max_disp / norm
 * where norm > max_disp, then where norm > eps pos += disp; moved |= and
 * now (NULL: not kept) = norm > eps.  A NaN norm neither clamps nor
 * moves. */
void repro_displace(double *pos, uint8_t *moved, const double *net,
                    double dt, double max_disp, double eps, uint8_t *now,
                    int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; i++) {
        double d[3];
        for (int k = 0; k < 3; k++) d[k] = net[3 * i + k] * dt;
        const double norm = sqrt((d[0] * d[0] + d[1] * d[1]) + d[2] * d[2]);
        if (norm > max_disp) {
            const double s = max_disp / norm;
            for (int k = 0; k < 3; k++) d[k] *= s;
        }
        const uint8_t go = norm > eps;
        if (go)
            for (int k = 0; k < 3; k++) pos[3 * i + k] += d[k];
        moved[i] |= go;
        if (now) now[i] = go;
    }
}

/* The Neumann-clamped 7-point stencil, c -> out, one plane per task; per
 * voxel numpy_ref.diffuse's ((((x+ + x-) + y+) + y-) + z+) + z-, - 6c,
 * / h^2, * D, - decay c, * dt, c +.  The two z faces are peeled off the
 * row so that its interior loop vectorizes. */
#define VOXEL(k, kp, km)                                                   \
    o[k] = x[k] + ((((((((xp[k] + xm[k]) + yp[k]) + ym[k]) + x[kp]) + x[km]) \
                      - x[k] * 6.0) / h2) * d - x[k] * decay) * dt
STENCIL_CLONES
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

/* Agent-field coupling (Secretion / Chemotaxis, numpy_ref.secrete /
 * chemotaxis).  An agent's voxel is DiffusionGrid._locate's: truncate
 * (p - lower) / h, clamp to [0, r - 1]; voxel (i, j, k) is cell (i r + j)
 * r + k of the C-ordered grid. */
static inline int64_t voxel(const double *p, double lower, double h,
                            int64_t r, int64_t *ijk) {
    for (int d = 0; d < 3; d++) {
        const int64_t v = (int64_t)((p[d] - lower) / h);
        ijk[d] = v < 0 ? 0 : v < r - 1 ? v : r - 1;
    }
    return (ijk[0] * r + ijk[1]) * r + ijk[2];
}

/* 0 if C reproduces numpy on the agents idx (m) of pos (n, 3), else -1:
 * idx must be strictly ascending within [0, n) (a duplicate changes a fancy
 * +=), and every (p - lower) / h must truncate to an int64 (NaN, +-inf and
 * |v| >= 2^63 do not; numpy's astype result there is platform-defined). */
static int64_t locatable(const double *pos, int64_t n, const int64_t *idx,
                         int64_t m, double lower, double h) {
    for (int64_t k = 0; k < m; k++) {
        const int64_t a = idx[k];
        if (a < 0 || a >= n || (k && a <= idx[k - 1])) return -1;
        for (int d = 0; d < 3; d++) {
            const double v = (pos[3 * a + d] - lower) / h;
            if (!(v >= -0x1p63 && v < 0x1p63)) return -1;
        }
    }
    return 0;
}

/* Secretion: amount into each agent's voxel, in idx order on one thread --
 * np.add.at's accumulation order.  Returns -1 before any write if the
 * agents are not locatable, else 0. */
int64_t repro_secrete(double *cells, int64_t r, double lower, double h,
                      const double *pos, int64_t n, const int64_t *idx,
                      int64_t m, double amount) {
    if (locatable(pos, n, idx, m, lower, h) < 0) return -1;
    for (int64_t k = 0; k < m; k++) {
        int64_t ijk[3];
        cells[voxel(pos + 3 * idx[k], lower, h, r, ijk)] += amount;
    }
    return 0;
}

/* Chemotaxis, one agent per iteration: the central-difference gradient
 * (cells[up] - cells[dn]) / (2 h) with the faces clamped, the norm
 * sqrt((x*x + y*y) + z*z), the step g / norm where norm > 1e-12 and 0.0
 * elsewhere, then p += (step * speed) * dt and moved |= ok -- every agent
 * writes only its own row.  Returns -1 before any write if the agents are
 * not locatable, else 0. */
int64_t repro_chemotaxis(const double *cells, int64_t r, double lower,
                         double h, double *pos, uint8_t *moved, int64_t n,
                         const int64_t *idx, int64_t m, double speed,
                         double dt, int nthreads) {
    if (locatable(pos, n, idx, m, lower, h) < 0) return -1;
    const double h2 = 2.0 * h;
    const int64_t stride[3] = {r * r, r, 1};
    FOR_ROWS(k, 0, m, {
        double *p = pos + 3 * idx[k], g[3];
        int64_t ijk[3];
        const int64_t at = voxel(p, lower, h, r, ijk);
        for (int d = 0; d < 3; d++) {
            const int64_t up = at + (ijk[d] < r - 1 ? stride[d] : 0),
                          dn = at - (ijk[d] > 0 ? stride[d] : 0);
            g[d] = (cells[up] - cells[dn]) / h2;
        }
        const double norm = sqrt((g[0] * g[0] + g[1] * g[1]) + g[2] * g[2]);
        const int ok = norm > 1e-12;
        for (int d = 0; d < 3; d++)
            p[d] += ((ok ? g[d] / norm : 0.0) * speed) * dt;
        moved[idx[k]] |= ok;
    })
    return 0;
}

/* Agent i's box coordinates with numpy's operations (env/uniform_grid.py's
 * box_ids): truncate (p - mins) / box_len, clamp to dims - 1. */
static inline void bin(const double *pos, int64_t i, const double *mins,
                       double box_len, const int64_t *dims, int64_t *c) {
    for (int d = 0; d < 3; d++) {
        c[d] = (int64_t)((pos[3 * i + d] - mins[d]) / box_len);
        c[d] = c[d] < dims[d] - 1 ? c[d] : dims[d] - 1;
    }
}

/* order = np.argsort(key, kind="stable") for keys in [0, top]: a stable LSD
 * radix sort in DIGIT-bit digits, as many passes as top needs.  buf (n) is
 * the second buffer; hist has RADIX slots. */
#define DIGIT 13
#define RADIX (1 << DIGIT)
static void radix_order(const int64_t *key, int64_t n, uint64_t top,
                        int64_t *order, int64_t *buf, int64_t *hist) {
    int passes = 0;
    for (; top > 0; top >>= DIGIT) passes++;
    /* pass 0 reads the identity, pass p what pass p - 1 wrote; pass p
     * writes order iff passes - p is odd, so the last one writes it */
    const int64_t *src = NULL;
    for (int p = 0; p < passes; p++) {
        int64_t *dst = (passes - p) % 2 ? order : buf;
        const int shift = p * DIGIT;
        for (int64_t v = 0; v < RADIX; v++) hist[v] = 0;
        for (int64_t k = 0; k < n; k++) hist[key[k] >> shift & (RADIX - 1)]++;
        for (int64_t v = 0, sum = 0; v < RADIX; v++) {
            const int64_t c = hist[v];
            hist[v] = sum, sum += c;
        }
        for (int64_t k = 0; k < n; k++) {
            const int64_t a = src ? src[k] : k;
            dst[hist[key[a] >> shift & (RADIX - 1)]++] = a;
        }
        src = dst;
    }
    if (!passes)
        for (int64_t k = 0; k < n; k++) order[k] = k;
}

/* The grid build's first pass, on the thread that plans it: pos (n >= 1
 * rows) copied into snap, and lohi = each column's min then max, NaN if
 * the column holds one (np.min / np.max).  Two rows at a time into six
 * independent lanes (SSE2 where the ISA has it: min / max are exactly
 * "v < lo ? v : lo"), whose ties may keep another of +0.0 / -0.0 than
 * numpy's; no caller can tell (the grid geometry subtracts 1e-9 first). */
void repro_grid_bounds(const double *pos, int64_t n, double *snap,
                       double *lohi) {
    double lo[6], hi[6], bad[6] = {0};  /* lane k is column k % 3 */
    for (int k = 0; k < 6; k++) lo[k] = hi[k] = pos[k % 3];
    const int64_t m = 3 * n;
    int64_t i = 0;
#ifdef __SSE2__
    __m128d vlo[3], vhi[3], vbad[3];
    for (int j = 0; j < 3; j++)
        vlo[j] = vhi[j] = _mm_loadu_pd(lo + 2 * j),
        vbad[j] = _mm_setzero_pd();
    for (; i + 6 <= m; i += 6)
        for (int j = 0; j < 3; j++) {
            const __m128d v = _mm_loadu_pd(pos + i + 2 * j);
            _mm_storeu_pd(snap + i + 2 * j, v);
            vlo[j] = _mm_min_pd(v, vlo[j]);
            vhi[j] = _mm_max_pd(v, vhi[j]);
            vbad[j] = _mm_or_pd(vbad[j], _mm_cmpunord_pd(v, v));
        }
    for (int j = 0; j < 3; j++) {
        _mm_storeu_pd(lo + 2 * j, vlo[j]), _mm_storeu_pd(hi + 2 * j, vhi[j]);
        _mm_storeu_pd(bad + 2 * j, vbad[j]);
    }
#endif
    for (int k = 0; i < m; i++, k = (k + 1) % 6) {
        const double v = pos[i];
        snap[i] = v;
        lo[k] = v < lo[k] ? v : lo[k];
        hi[k] = v > hi[k] ? v : hi[k];
        bad[k] = v != v ? 1.0 : bad[k];
    }
    for (int d = 0; d < 3; d++) {
        const int k = d + 3;
        const double l = lo[k] < lo[d] ? lo[k] : lo[d];
        const double h = hi[k] > hi[d] ? hi[k] : hi[d];
        const int nan = bad[d] != 0.0 || bad[k] != 0.0;
        lohi[d] = nan ? NAN : l, lohi[3 + d] = nan ? NAN : h;
    }
}

/* The uniform grid's build (env/uniform_grid.py's update) in O(#agents),
 * for dims and mins from numpy: box ids (bin, x fastest), radix_order by
 * box id, then one pass over the sorted agents for the occupied boxes and
 * their runs, the live boxes' start / count / stamp, the successor list
 * and xyz = pos[order].  No box is visited that holds no agent.  successor
 * doubles as the sort's second buffer; hist has RADIX slots.  Returns the
 * number of occupied boxes. */
static int64_t grid_build(const double *pos, int64_t n, const double *mins,
                          double box_len, const int64_t *dims, int64_t *start,
                          int64_t *count, int64_t *stamp, int64_t now,
                          int64_t *box, int64_t *order, int64_t *successor,
                          int64_t *occupied, int64_t *run_start, double *xyz,
                          int64_t *hist) {
    for (int64_t i = 0; i < n; i++) {
        int64_t c[3];
        bin(pos, i, mins, box_len, dims, c);
        box[i] = (c[2] * dims[1] + c[1]) * dims[0] + c[0];
    }
    radix_order(box, n, dims[0] * dims[1] * dims[2] - 1, order, successor,
                hist);
    int64_t m = 0;
    for (int64_t k = 0; k < n; k++) {
        const int64_t a = order[k], b = box[a];
        if (k == 0 || b != box[order[k - 1]]) {
            if (m) count[occupied[m - 1]] = k - run_start[m - 1];
            occupied[m] = b, run_start[m++] = k;
            start[b] = k, stamp[b] = now;
        }
        successor[a] = k + 1 < n && box[order[k + 1]] == b ? order[k + 1] : -1;
        for (int d = 0; d < 3; d++) xyz[3 * k + d] = pos[3 * a + d];
    }
    if (m) count[occupied[m - 1]] = n - run_start[m - 1];
    run_start[m] = n;
    return m;
}

/* The uniform grid's search (env/uniform_grid.py) in cell-sorted space: xyz
 * is positions[order], box b is the slice [start[b], start[b] + count[b])
 * and is live iff its stamp is now.
 *
 * Box b's half stencil (_FORWARD_ROWS), each ONE run [lo, hi): the live
 * boxes among the <= 3 x-adjacent ones of a (dy, dz) row are consecutive.
 * Run 0 is box b itself and box x+1 (the caller starts it after the agent),
 * runs 1-4 the four forward rows; c is the box's (x, y, z).  Returns
 * their total. */
static const int64_t FORWARD[5][2] = {{0, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}};
static int64_t box_runs(const int64_t *c, const int64_t *dims,
                        const int64_t *start, const int64_t *count,
                        const int64_t *stamp, int64_t now, int64_t *lo,
                        int64_t *hi) {
    const int64_t nx = dims[0], ny = dims[1], nz = dims[2];
    const int64_t cx = c[0], cy = c[1], cz = c[2];
    const int64_t x0 = cx > 0 ? cx - 1 : 0, x1 = cx + 1 < nx ? cx + 1 : cx;
    int64_t total = 0;
    for (int r = 0; r < 5; r++) {
        const int64_t y = cy + FORWARD[r][0], z = cz + FORWARD[r][1];
        lo[r] = hi[r] = 0;
        if (z >= nz || y < 0 || y >= ny) continue;
        const int64_t row = (z * ny + y) * nx;
        int64_t a = row + (r ? x0 : cx), e = row + x1;
        while (a <= e && stamp[a] != now) a++;
        if (a > e) continue;
        while (stamp[e] != now) e--;
        lo[r] = start[a], hi[r] = start[e] + count[e];
        total += hi[r] - lo[r];
    }
    return total;
}

/* The occupied boxes [resume[0], end) of one search chunk.  Row p checks
 * each q of its 5 runs once, q > p in its own box: it keeps q with
 * (dx*dx + dy*dy) + dz*dz <= r2 as the agent order[q], staged at stage +
 * at[p], and counts the pair in counts[a + 1] for both of its agents a.
 * Where stage (cap slots) holds all of the row's candidates it stages
 * branch-free (a store per candidate, kept ones advance); near its end it
 * counts first and stores kept ones only.  A row that does not fit is not
 * staged: the search returns -(its slots plus the row's candidates), and
 * resume = {occupied box, row, staged slots} is where the next call
 * starts.  Done, it returns the staged slots, also left in resume[2]. */
static int64_t search_boxes(const double *xyz, const int64_t *order,
                            const int64_t *occupied,
                            const int64_t *run_start, int64_t end,
                            const int64_t *start, const int64_t *count,
                            const int64_t *stamp, int64_t now,
                            const int64_t *dims, double r2, int64_t *stage,
                            int64_t cap, int64_t *resume, int64_t *counts,
                            int64_t *at) {
    int64_t used = resume[2], lo[5], hi[5], c[3] = {0, 0, 0}, prev = -1;
    for (int64_t k = resume[0]; k < end; k++) {
        /* the box's coordinates: a step along its x row, else (one in ~nx
         * boxes on a dense grid) three 64-bit divisions, which are slow */
        const int64_t b = occupied[k];
        if (prev >= 0 && b - prev < dims[0] - c[0])
            c[0] += b - prev;
        else
            c[0] = b % dims[0], c[1] = b / dims[0] % dims[1],
            c[2] = b / (dims[0] * dims[1]);
        prev = b;
        const int64_t bound = box_runs(c, dims, start, count, stamp, now, lo,
                                       hi);
        const int64_t first = k == resume[0] ? resume[1] : run_start[k];
        for (int64_t p = first; p < run_start[k + 1]; p++) {
            int64_t *row = stage + used, kept = 0;
            const double x = xyz[3 * p], y = xyz[3 * p + 1],
                         z = xyz[3 * p + 2];
            lo[0] = p + 1;
#define KEEP(q) (((x - xyz[3 * (q)]) * (x - xyz[3 * (q)])                  \
                  + (y - xyz[3 * (q) + 1]) * (y - xyz[3 * (q) + 1]))       \
                 + (z - xyz[3 * (q) + 2]) * (z - xyz[3 * (q) + 2]) <= r2)
            if (used + bound <= cap) {
                for (int r = 0; r < 5; r++)
                    for (int64_t q = lo[r]; q < hi[r]; q++) {
                        row[kept] = order[q];
                        kept += KEEP(q);
                    }
            } else {
                for (int r = 0; r < 5; r++)
                    for (int64_t q = lo[r]; q < hi[r]; q++) kept += KEEP(q);
                if (used + kept > cap) {
                    resume[0] = k, resume[1] = p, resume[2] = used;
                    return -(used + bound);
                }
                kept = 0;
                for (int r = 0; r < 5; r++)
                    for (int64_t q = lo[r]; q < hi[r]; q++)
                        if (KEEP(q)) row[kept++] = order[q];
            }
#undef KEEP
            for (int64_t s = 0; s < kept; s++) counts[row[s] + 1]++;
            at[p] = used;
            counts[order[p] + 1] += kept;
            used += kept;
        }
    }
    resume[2] = used;
    return used;
}

/* Row a's columns are the b whose rows hold a (the kept relation is
 * symmetric), so appending b to those rows for b = 0, 1, ... writes every
 * row ascending, without a comparison.  Row b is read at rows + indptr[b];
 * cursor (n) is scratch. */
static void fill(const int64_t *rows, const int64_t *indptr, int64_t n,
                 int64_t *cursor, int64_t *indices) {
    for (int64_t b = 0; b < n; b++) cursor[b] = indptr[b];
    for (int64_t b = 0; b < n; b++) {
        const int64_t *row = rows + indptr[b], m = indptr[b + 1] - indptr[b];
        for (int64_t k = 0; k < m; k++) indices[cursor[row[k]]++] = b;
    }
}

/* A grid task (c_backend.GridTask): a build and its search as one job for
 * two threads, a helper (role 0) and the CSR's first reader (role 1).
 * Python allocates every buffer and this block, and calls
 * repro_grid_task to fill it; repro_grid_work then runs on either thread.
 *
 * - The build comes first, run by whichever thread claims it (the other
 *   waits): grid_build from the kept snapshot, the chunk table, and
 *   zeroed counts.
 * - The search is CHUNKS box ranges of ~n / CHUNKS agents each, claimed
 *   from an atomic counter.  A chunk stages its rows in its own region of
 *   the stage, writes at[p] (region offsets) for its own rows only and
 *   counts into its thread's counts array.
 * - The thread that completes the last chunk merges: indptr is the prefix
 *   sum of both threads' counts (integer sums: any order), the scatter
 *   walks the rows in p order chunk by chunk, the fill transposes.  So the
 *   CSR does not depend on which thread ran which chunk.  If a chunk's
 *   region overflowed, nothing is merged: Python grows its region and
 *   calls repro_grid_resume, then repro_grid_finish
 *   (c_backend._search_into).
 *
 * A chunk-table row (CHUNK int64 slots) is {resume box, resume row, staged
 * slots (resume[2]), end box, region slots, region address, state (0
 * unclaimed, 1 done, -(slots it needs) overflowed), first row}.  info is
 * {occupied boxes, forward pairs (-1 on overflow), chunks each role ran}. */
#define CHUNK 8
typedef struct {
    const double *snap;
    int64_t n;
    const double *mins;
    double box_len;
    const int64_t *dims;
    int64_t *start, *count, *stamp;
    int64_t now;
    int64_t *box, *order, *successor, *occupied, *run_start;
    double *xyz;
    int64_t *hist;
    double r2;
    int64_t *stage;
    int64_t cap;
    int64_t *counts[2];
    int64_t *at, *indptr, *cursor, *rows, *indices;
    int64_t chunks;
    int64_t *table;
    const double *density;
    int64_t *info;
    int64_t built, next, done; /* claims: build 0 / 1 running / 2 done */
} task_t;

int64_t repro_grid_task_size(void) { return sizeof(task_t); }

void repro_grid_task(task_t *t, const double *snap, int64_t n,
                     const double *mins, double box_len, const int64_t *dims,
                     int64_t *start, int64_t *count, int64_t *stamp,
                     int64_t now, int64_t *box, int64_t *order,
                     int64_t *successor, int64_t *occupied,
                     int64_t *run_start, double *xyz, int64_t *hist,
                     double r2, int64_t *stage, int64_t cap,
                     int64_t *counts0, int64_t *counts1, int64_t *at,
                     int64_t *indptr, int64_t *cursor, int64_t *rows,
                     int64_t *indices, int64_t chunks, int64_t *table,
                     const double *density, int64_t *info) {
    *t = (task_t){snap, n, mins, box_len, dims, start, count, stamp, now,
                  box, order, successor, occupied, run_start, xyz, hist, r2,
                  stage, cap, {counts0, counts1}, at, indptr, cursor, rows,
                  indices, chunks, table, density, info, 0, 0, 0};
}

/* Chunk c ends at the first box starting at or past agent (c + 1) n /
 * chunks.  Its region has 5/4 of the most pairs an agent that chunk c or
 * a neighbour found in the last search (density; a chunk's boxes shift
 * between searches, and a chunk of a growing tissue densifies by up to
 * ~15 % a tick), and at least 4 slots an agent. */
static void plan_chunks(task_t *t) {
    const int64_t n = t->n, boxes = t->info[0], last = t->chunks - 1;
    int64_t k = 0, base = 0;
    for (int64_t c = 0; c <= last; c++) {
        int64_t *row = t->table + CHUNK * c, end = k;
        const int64_t target = (c + 1) * n / t->chunks;
        while (end < boxes && t->run_start[end] < target) end++;
        const int64_t agents = t->run_start[end] - t->run_start[k];
        double slots = 4.0;
        for (int64_t d = c > 0 ? c - 1 : 0; d <= c + 1 && d <= last; d++)
            slots = 1.25 * t->density[d] > slots ? 1.25 * t->density[d] : slots;
        int64_t cap = (int64_t)ceil((double)agents * slots);
        cap = cap < t->cap - base ? cap : t->cap - base;
        row[0] = k, row[1] = t->run_start[k], row[2] = 0, row[3] = end;
        row[4] = cap, row[5] = (int64_t)(intptr_t)(t->stage + base);
        row[6] = 0, row[7] = t->run_start[k];
        base += cap, k = end;
    }
}

static void build(task_t *t) {
    t->info[0] = grid_build(t->snap, t->n, t->mins, t->box_len, t->dims,
                            t->start, t->count, t->stamp, t->now, t->box,
                            t->order, t->successor, t->occupied,
                            t->run_start, t->xyz, t->hist);
    plan_chunks(t);
    for (int64_t i = 0; i <= t->n; i++) t->counts[0][i] = t->counts[1][i] = 0;
}

/* The merge into rows and indices (2 * the forward pairs each): indptr,
 * the scatter of each staged pair (order[p], b) into both of its rows,
 * unsorted, then the fill.  Returns the forward pairs. */
int64_t repro_grid_finish(task_t *t, int64_t *rows, int64_t *indices) {
    const int64_t n = t->n, *c0 = t->counts[0], *c1 = t->counts[1];
    int64_t *indptr = t->indptr, *cursor = t->cursor;
    indptr[0] = 0;
    for (int64_t i = 0; i < n; i++)
        indptr[i + 1] = indptr[i] + (c0[i + 1] + c1[i + 1]);
    for (int64_t a = 0; a < n; a++) cursor[a] = indptr[a];
    for (int64_t c = 0; c < t->chunks; c++) {
        const int64_t *row = t->table + CHUNK * c;
        const int64_t *stage = (const int64_t *)(intptr_t)row[5];
        const int64_t last = t->run_start[row[3]];
        for (int64_t p = row[7]; p < last; p++) {
            const int64_t a = t->order[p];
            const int64_t end = p + 1 < last ? t->at[p + 1] : row[2];
            for (int64_t s = t->at[p]; s < end; s++) {
                const int64_t b = stage[s];
                rows[cursor[a]++] = b;
                rows[cursor[b]++] = a;
            }
        }
    }
    fill(rows, indptr, n, cursor, indices);
    return indptr[n] / 2;
}

/* Chunk c's search (on from its resume slots) as role: its state becomes
 * 1, or -(the slots it needs) if its region overflowed. */
static void run_chunk(task_t *t, int role, int64_t c) {
    int64_t *row = t->table + CHUNK * c;
    const int64_t got = search_boxes(
        t->xyz, t->order, t->occupied, t->run_start, row[3], t->start,
        t->count, t->stamp, t->now, t->dims, t->r2,
        (int64_t *)(intptr_t)row[5], row[4], row, t->counts[role], t->at);
    row[6] = got < 0 ? got : 1;
}

/* Run the build if nobody has (else wait for it), then up to limit chunks
 * (limit < 0: every one left) as role; the thread completing the last
 * chunk merges.  Returns the chunks it ran. */
int64_t repro_grid_work(task_t *t, int role, int64_t limit) {
    int64_t idle = 0;
    if (__atomic_compare_exchange_n(&t->built, &idle, 1, 0, __ATOMIC_ACQUIRE,
                                    __ATOMIC_ACQUIRE)) {
        build(t);
        __atomic_store_n(&t->built, 2, __ATOMIC_RELEASE);
    } else {
        while (__atomic_load_n(&t->built, __ATOMIC_ACQUIRE) != 2)
            sched_yield();
    }
    int64_t ran = 0;
    for (; ran != limit; ran++) {
        const int64_t c = __atomic_fetch_add(&t->next, 1, __ATOMIC_RELAXED);
        if (c >= t->chunks) break;
        run_chunk(t, role, c);
        if (__atomic_add_fetch(&t->done, 1, __ATOMIC_ACQ_REL) != t->chunks)
            continue;
        int64_t overflowed = 0;
        for (int64_t k = 0; k < t->chunks; k++)
            overflowed |= t->table[CHUNK * k + 6] < 0;
        t->info[1] = overflowed ? -1 : repro_grid_finish(t, t->rows,
                                                         t->indices);
    }
    t->info[2 + role] += ran;
    return ran;
}

/* The helper's entry: the whole task, as role 0. */
void repro_grid_csr(task_t *t) { repro_grid_work(t, 0, -1); }

/* The overflow finish's search, on the joining thread (role 1) once both
 * are done: every chunk whose state Python reset to 0 -- given a larger
 * region holding what it had staged -- goes on from its resume slots.
 * Returns the chunks that overflowed again. */
int64_t repro_grid_resume(task_t *t) {
    int64_t again = 0;
    for (int64_t c = 0; c < t->chunks; c++)
        if (t->table[CHUNK * c + 6] == 0) {
            run_chunk(t, 1, c);
            again += t->table[CHUNK * c + 6] < 0;
        }
    return again;
}

/* Spread the low 21 bits of x: bit i to bit 3i (sfc/morton.py's
 * _part1by2). */
static inline uint64_t part1by2(uint64_t x) {
    x &= 0x1FFFFF;
    x = (x | x << 32) & 0x1F00000000FFFF;
    x = (x | x << 16) & 0x1F0000FF0000FF;
    x = (x | x << 8) & 0x100F00F00F00F00F;
    x = (x | x << 4) & 0x10C30C30C30C30C3;
    x = (x | x << 2) & 0x1249249249249249;
    return x;
}

/* Agent sorting's order (core/sorting.py): each agent's box (bin), the
 * box's 3D Morton code (x in the lowest bit, as sfc/morton.py's
 * morton_encode_3d), then radix_order by code.  A box's compact Morton rank
 * is strictly increasing in its code, so this is np.argsort(ranks,
 * kind="stable").  code and buf (n) are scratch; hist has RADIX slots. */
void repro_morton_order(const double *pos, int64_t n, const double *mins,
                        double box_len, const int64_t *dims, int64_t *code,
                        int64_t *order, int64_t *buf, int64_t *hist) {
    uint64_t top = 0;  /* as many bits as the largest code */
    for (int64_t i = 0; i < n; i++) {
        int64_t c[3];
        bin(pos, i, mins, box_len, dims, c);
        const uint64_t m = part1by2(c[0]) | part1by2(c[1]) << 1
                           | part1by2(c[2]) << 2;
        code[i] = (int64_t)m, top |= m;
    }
    radix_order(code, n, top, order, buf, hist);
}

/* A symmetric CSR (indptr, indices) over n agents renumbered by the
 * permutation order (agent order[b] becomes b), rows ascending: inv =
 * order's inverse, new row b has old row order[b]'s length, and for b = 0,
 * 1, ... b is appended to new row inv[j] of every j in old row order[b] --
 * the grid search's fill, reading the old rows in new order (by
 * symmetry the rows b lands in are new row b's columns).  cursor (n) is
 * scratch.  Returns -1, before writing out of range, if order is not a
 * permutation of 0..n-1, a column is out of range or a row receives more
 * columns than it has (the rows are not symmetric), else 0. */
int64_t repro_csr_relabel(const int64_t *indptr, const int64_t *indices,
                          const int64_t *order, int64_t n, int64_t *inv,
                          int64_t *cursor, int64_t *new_indptr,
                          int64_t *new_indices) {
    for (int64_t b = 0; b < n; b++) inv[b] = -1;
    new_indptr[0] = 0;
    for (int64_t b = 0; b < n; b++) {
        const int64_t o = order[b];
        if (o < 0 || o >= n || inv[o] >= 0) return -1;
        inv[o] = b;
        new_indptr[b + 1] = new_indptr[b] + indptr[o + 1] - indptr[o];
    }
    for (int64_t b = 0; b < n; b++) cursor[b] = new_indptr[b];
    for (int64_t b = 0; b < n; b++) {
        for (int64_t k = indptr[order[b]]; k < indptr[order[b] + 1]; k++) {
            const int64_t j = indices[k];
            if (j < 0 || j >= n) return -1;
            const int64_t a = inv[j];
            if (cursor[a] == new_indptr[a + 1]) return -1;
            new_indices[cursor[a]++] = b;
        }
    }
    return 0;
}
