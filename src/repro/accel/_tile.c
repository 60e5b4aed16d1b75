/* The GRAPE-6 pipeline loop in C: softened force + jerk, one j-chunk.
 *
 * For every sink row the pair sum over sources [0, n_j) is kept in
 * registers -- no (rows, cols) planes, no intermediate memory -- the way
 * a GRAPE-6 pipeline retires one interaction per clock into on-chip
 * accumulators.  The active-block entry point also runs the predictor
 * beside it, on the resident rows, the way the chip does.  Built and
 * loaded by repro/accel/native.py; the chunk plan, the ascending chunk
 * fold and threading stay in python (repro/accel/engine.py).
 *
 * Bits must not depend on the build host.  Source j of the chunk always
 * lands on lane j mod 8, every lane is a plain sequential sum, the eight lanes are
 * folded in one fixed tree, and the build turns contraction off
 * (-ffp-contract=off: no fused multiply-add), so any vector width the
 * compiler picks -- 2, 4 or 8 doubles -- performs the same IEEE
 * operations in the same order.  That is what lets the entry point carry
 * AVX2 and AVX-512 clones next to the baseline one (picked by the
 * dynamic loader from the CPU it runs on, never by a build flag): 2x on
 * the pair loop, bit for bit the SSE2 result (docs/PERFORMANCE.md).
 *
 * Excluded pairs (the sink's own column, or a set byte of the optional
 * mask) get r2 = inf, which drives m/r^3 and the jerk weight to exact
 * zeros: the same mechanism as the numpy tiles, so an excluded pair
 * changes no bit of the sum wherever it sits.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define LANES 8

#if defined(__x86_64__) && defined(__gnu_linux__) && defined(__GNUC__) \
    && !defined(__clang__)
#define ISA_CLONES __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define ISA_CLONES
#endif

typedef struct {
    double ax[LANES], ay[LANES], az[LANES];
    double jx[LANES], jy[LANES], jz[LANES];
} lane_sums;

/* Sources [0, nl) of one block against one sink, source l on lane l.
 * Always inlined: the full-block call sites pass nl = LANES as a
 * constant, so the lane loop unrolls and vectorises there. */
static inline __attribute__((always_inline)) void
block_add(int nl, const double *pj, const double *vj, const double *mj,
          const double *xi, const double *vi, double eps2,
          const uint8_t *excl, ptrdiff_t self, lane_sums *s)
{
    double r2[LANES];
    for (int l = 0; l < nl; l++) {
        double dx = pj[3 * l] - xi[0];
        double dy = pj[3 * l + 1] - xi[1];
        double dz = pj[3 * l + 2] - xi[2];
        r2[l] = ((dx * dx + dy * dy) + dz * dz) + eps2;
    }
    if (excl)
        for (int l = 0; l < nl; l++)
            if (excl[l])
                r2[l] = INFINITY;
    if (self >= 0 && self < nl)
        r2[self] = INFINITY;
    for (int l = 0; l < nl; l++) {
        double dx = pj[3 * l] - xi[0];
        double dy = pj[3 * l + 1] - xi[1];
        double dz = pj[3 * l + 2] - xi[2];
        double dvx = vj[3 * l] - vi[0];
        double dvy = vj[3 * l + 1] - vi[1];
        double dvz = vj[3 * l + 2] - vi[2];
        double rv = (dx * dvx + dy * dvy) + dz * dvz;
        double mr3 = mj[l] / (sqrt(r2[l]) * r2[l]);
        double w = 3.0 * (mr3 * rv / r2[l]);
        s->ax[l] += mr3 * dx;
        s->ay[l] += mr3 * dy;
        s->az[l] += mr3 * dz;
        s->jx[l] += mr3 * dvx - w * dx;
        s->jy[l] += mr3 * dvy - w * dy;
        s->jz[l] += mr3 * dvz - w * dz;
    }
}

static inline double fold(const double *v)
{
    return ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]));
}

/* The row loop: add the pull of sources [0, n_j) on sinks [0, n_i) into
 * acc / jerk.  Always inlined into the two entry points below, so each
 * of their ISA clones carries its own vectorised copy. */
static inline __attribute__((always_inline)) void
rows_add(ptrdiff_t n_i, ptrdiff_t n_j,
         const double *pos_i, const double *vel_i,
         const double *pos_j, const double *vel_j, const double *mass_j,
         double eps2, const int64_t *self_idx, ptrdiff_t j0,
         const uint8_t *excl, ptrdiff_t excl_stride,
         double *acc, double *jerk)
{
    for (ptrdiff_t i = 0; i < n_i; i++) {
        const double *xi = pos_i + 3 * i, *vi = vel_i + 3 * i;
        const uint8_t *ex = excl ? excl + i * excl_stride : NULL;
        /* the sink's own column in this chunk; out of range = none, and
         * stays out of range when a block start is subtracted */
        ptrdiff_t self = self_idx ? (ptrdiff_t)self_idx[i] - j0 : -1;
        if (self < 0 || self >= n_j)
            self = -1;
        lane_sums s = {{0}};
        ptrdiff_t jb = 0;
        for (; jb + LANES <= n_j; jb += LANES)
            block_add(LANES, pos_j + 3 * jb, vel_j + 3 * jb, mass_j + jb,
                      xi, vi, eps2, ex ? ex + jb : NULL, self - jb, &s);
        if (jb < n_j)
            block_add((int)(n_j - jb), pos_j + 3 * jb, vel_j + 3 * jb,
                      mass_j + jb, xi, vi, eps2, ex ? ex + jb : NULL,
                      self - jb, &s);
        acc[3 * i] += fold(s.ax);
        acc[3 * i + 1] += fold(s.ay);
        acc[3 * i + 2] += fold(s.az);
        jerk[3 * i] += fold(s.jx);
        jerk[3 * i + 1] += fold(s.jy);
        jerk[3 * i + 2] += fold(s.jz);
    }
}

/* Add the pull of sources [0, n_j) on sinks [0, n_i) into acc / jerk.
 *
 * pos_*, vel_*, acc, jerk are C-contiguous (n, 3) doubles.  self_idx
 * (or NULL) holds each sink's column in the *unchunked* source list and
 * j0 is this chunk's first column there; a negative entry, or one
 * outside [j0, j0 + n_j), excludes nothing.  excl (or NULL) points at
 * the chunk's first column of a byte mask whose rows are excl_stride
 * bytes apart; non-zero excludes the pair.
 */
ISA_CLONES void repro_acc_jerk_rows(
    ptrdiff_t n_i, ptrdiff_t n_j,
    const double *pos_i, const double *vel_i,
    const double *pos_j, const double *vel_j, const double *mass_j,
    double eps2, const int64_t *self_idx, ptrdiff_t j0,
    const uint8_t *excl, ptrdiff_t excl_stride,
    double *acc, double *jerk)
{
    rows_add(n_i, n_j, pos_i, vel_i, pos_j, vel_j, mass_j, eps2,
             self_idx, j0, excl, excl_stride, acc, jerk);
}

/* The on-chip predictor: one resident row to time t_now.  The
 * expression is repro.core.predictor's, operation for operation
 *   x + dt * (v + dt * (0.5 * a + (dt / 6.0) * j))
 *   v + dt * (a + (0.5 * dt) * j)
 * and the build keeps contraction off, so the predicted coordinates
 * carry the bits numpy computes. */
static inline void
predict_row(const double *x, const double *v, const double *a,
            const double *j, double dt, double *xp, double *vp)
{
    double dt6 = dt / 6.0, hdt = 0.5 * dt;
    for (int k = 0; k < 3; k++) {
        xp[k] = x[k] + dt * (v[k] + dt * (0.5 * a[k] + dt6 * j[k]));
        vp[k] = v[k] + dt * (a[k] + hdt * j[k]);
    }
}

/* One j-chunk of the active-block force, predictor beside the pipeline.
 *
 * pos vel acc0 jerk0 t mass are the resident arrays of all n particles
 * (the j-memory).  The sinks active[0, n_i) are predicted to t_now by
 * index, the sources [j0, j1) in place, both into scratch -- 6 * (n_i +
 * j1 - j0) doubles -- and the row loop adds the chunk's pull on every
 * sink into acc / jerk, each sink's own column excluded.  Returns 0, or
 * -1 before touching anything when an active entry is outside [0, n).
 */
ISA_CLONES int repro_acc_jerk_active_chunk(
    ptrdiff_t n, ptrdiff_t n_i, const int64_t *active,
    const double *pos, const double *vel,
    const double *acc0, const double *jerk0,
    const double *t, const double *mass,
    double t_now, double eps2, ptrdiff_t j0, ptrdiff_t j1,
    double *scratch, double *acc, double *jerk)
{
    ptrdiff_t n_j = j1 - j0;
    double *pos_i = scratch, *vel_i = pos_i + 3 * n_i;
    double *pos_j = vel_i + 3 * n_i, *vel_j = pos_j + 3 * n_j;
    for (ptrdiff_t i = 0; i < n_i; i++)
        if (active[i] < 0 || active[i] >= n)
            return -1;
    for (ptrdiff_t i = 0; i < n_i; i++) {
        ptrdiff_t r = (ptrdiff_t)active[i];
        predict_row(pos + 3 * r, vel + 3 * r, acc0 + 3 * r, jerk0 + 3 * r,
                    t_now - t[r], pos_i + 3 * i, vel_i + 3 * i);
    }
    for (ptrdiff_t c = 0; c < n_j; c++) {
        ptrdiff_t r = j0 + c;
        predict_row(pos + 3 * r, vel + 3 * r, acc0 + 3 * r, jerk0 + 3 * r,
                    t_now - t[r], pos_j + 3 * c, vel_j + 3 * c);
    }
    rows_add(n_i, n_j, pos_i, vel_i, pos_j, vel_j, mass + j0, eps2,
             active, j0, NULL, 0, acc, jerk);
    return 0;
}
