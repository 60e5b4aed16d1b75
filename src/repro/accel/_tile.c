/* The GRAPE-6 pipeline loop in C: softened force + jerk, one j-chunk.
 *
 * For every sink row the pair sum over sources [0, n_j) is kept in
 * registers -- no (rows, cols) planes, no intermediate memory -- the way
 * a GRAPE-6 pipeline retires one interaction per clock into on-chip
 * accumulators.  The active-block entry point also runs the predictor
 * beside it, on the resident rows, the way the chip does.  Built and
 * loaded by repro/accel/native.py; the chunk plan, the ascending chunk
 * fold and threading stay in python (repro/accel/engine.py), except in
 * the tree force (repro_tree_force), which groups the sinks, walks the
 * tree per sink group, runs the same plan and fold itself, serially, on
 * the lists it walked and records the in-sphere pairs beside the sums.
 * The tree it walks is built here too (repro_tree_build:
 * predict every source, then the octree, bit for bit the NumPy build).
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
 *
 * The block step's host work -- predict the active rows, then Kepler,
 * Hermite corrector, Aarseth step and block quantisation -- is here too
 * (repro_block_predict / repro_block_correct).  Unlike the pair loop it
 * has no freedom of order: it reproduces the NumPy step of
 * repro.core.integrator operation for operation, bit for bit on every
 * host, including the orders numpy's einsum and add.reduce sum in.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

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

/* The traceless quadrupole of sources [0, nl) (nine moments each, mass
 * included) on one sink, source l on lane l:
 *   a += 2.5 (dr.Q dr) dr / r^7 - (Q dr) / r^5,   dr = source - sink,
 * with the softened r of the monopole term. */
static inline __attribute__((always_inline)) void
quad_add(int nl, const double *pj, const double *qj, const double *xi,
         double eps2, double *qx, double *qy, double *qz)
{
    for (int l = 0; l < nl; l++) {
        const double *q = qj + 9 * l;
        double dx = pj[3 * l] - xi[0];
        double dy = pj[3 * l + 1] - xi[1];
        double dz = pj[3 * l + 2] - xi[2];
        double r2 = ((dx * dx + dy * dy) + dz * dz) + eps2;
        double r5 = (r2 * r2) * sqrt(r2);
        double qdx = (q[0] * dx + q[1] * dy) + q[2] * dz;
        double qdy = (q[3] * dx + q[4] * dy) + q[5] * dz;
        double qdz = (q[6] * dx + q[7] * dy) + q[8] * dz;
        double w = 2.5 * ((dx * qdx + dy * qdy) + dz * qdz) / (r5 * r2);
        qx[l] += w * dx - qdx / r5;
        qy[l] += w * dy - qdy / r5;
        qz[l] += w * dz - qdz / r5;
    }
}

/* The row loop: add the pull of sources [0, n_j) on sinks [0, n_i) into
 * acc / jerk, with the quadrupole term of quad_j (or NULL) in the
 * acceleration -- added in the same one += per row and chunk as the
 * monopole, so a chunked sum folds the same way serial or threaded.
 * Always inlined into the entry points below, so each of their ISA
 * clones carries its own vectorised copy. */
static inline __attribute__((always_inline)) void
rows_add(ptrdiff_t n_i, ptrdiff_t n_j,
         const double *pos_i, const double *vel_i,
         const double *pos_j, const double *vel_j, const double *mass_j,
         const double *quad_j,
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
        if (quad_j) {
            double qx[LANES] = {0}, qy[LANES] = {0}, qz[LANES] = {0};
            for (jb = 0; jb + LANES <= n_j; jb += LANES)
                quad_add(LANES, pos_j + 3 * jb, quad_j + 9 * jb, xi, eps2,
                         qx, qy, qz);
            if (jb < n_j)
                quad_add((int)(n_j - jb), pos_j + 3 * jb, quad_j + 9 * jb,
                         xi, eps2, qx, qy, qz);
            acc[3 * i] += fold(s.ax) + fold(qx);
            acc[3 * i + 1] += fold(s.ay) + fold(qy);
            acc[3 * i + 2] += fold(s.az) + fold(qz);
        } else {
            acc[3 * i] += fold(s.ax);
            acc[3 * i + 1] += fold(s.ay);
            acc[3 * i + 2] += fold(s.az);
        }
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
 * bytes apart; non-zero excludes the pair.  quad_j (or NULL) holds nine
 * quadrupole moments per source (tree nodes: no self column, no mask).
 */
ISA_CLONES void repro_acc_jerk_rows(
    ptrdiff_t n_i, ptrdiff_t n_j,
    const double *pos_i, const double *vel_i,
    const double *pos_j, const double *vel_j, const double *mass_j,
    double eps2, const int64_t *self_idx, ptrdiff_t j0,
    const uint8_t *excl, ptrdiff_t excl_stride,
    double *acc, double *jerk, const double *quad_j)
{
    rows_add(n_i, n_j, pos_i, vel_i, pos_j, vel_j, mass_j, quad_j, eps2,
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
    rows_add(n_i, n_j, pos_i, vel_i, pos_j, vel_j, mass + j0, NULL, eps2,
             active, j0, NULL, 0, acc, jerk);
    return 0;
}

/* einsum("ij,ij->i") on a 3-vector: two accumulators (x0 and x2 on one,
 * x1 on the other), each started from +0, so a -0 sum comes out +0. */
static inline double
dot3(const double *x, const double *y)
{
    return ((x[0] * y[0] + x[2] * y[2]) + x[1] * y[1]) + 0.0;
}

/* -- the grouped tree walk ------------------------------------------------
 *
 * Fukushige & Kawai's scheme in one call: the host groups the sinks
 * along the tree's own cells, walks the tree once per sink group, and
 * the pipeline reads the accepted nodes and the opened leaves' particles
 * from the resident arrays by index, recording beside the force which
 * pp sources lie inside each sink's neighbour sphere (GRAPE-6's
 * neighbour memory).  Every step reproduces repro.hybrid.walk exactly:
 * the groups are build_groups' (same cells, same order, same centroid,
 * radius and h_max bits), the walk is walk_groups' -- its acceptance
 * tests in its operation order, its node order (breadth first: level by
 * level, frontier order; a FIFO gives that order for one group) and its
 * ascending pp lists -- the sums are that module's per-group engine
 * calls (the node list, then the pp list, each over the engine's j-chunk
 * plan, then node + pp), and the pairs are _neighbour_pairs'.  The
 * arrays are the fields of an Octree, a SinkGroups and an
 * InteractionLists (repro.accel.native mirrors these structs). */

typedef struct {
    ptrdiff_t n, n_nodes;
    const double *pos, *vel, *mass;          /* vel NULL: zeros */
    const double *com, *mom, *node_mass;     /* node moments */
    const double *quad;                      /* 9 per node, or NULL */
    const double *center, *half;
    const int64_t *first_child, *n_children, *leaf_start, *leaf_count;
    const int64_t *leaf_perm;
    const uint8_t *mask;                     /* octants that have a child */
} tree_arrays;

/* The partition of the n_sinks rows the call writes (SinkGroups), room
 * for n_sinks groups: group g is order[ptr[g], ptr[g+1]). */
typedef struct {
    ptrdiff_t n_sinks, n_groups;             /* n_groups: written */
    int64_t *order, *ptr;
    double *centroid, *radius, *h_max;       /* h_max NULL: no spheres */
} sink_groups;

/* The CSR lists the walk emits (InteractionLists) and the in-sphere
 * pairs (sink row, source, dist2); an entry is written only below its
 * capacity, the pointers and the pair count always. */
typedef struct {
    int64_t *node_ptr, *node_idx, *pp_ptr, *pp_idx;
    ptrdiff_t node_cap, pp_cap;
    int64_t *pair_row, *pair_src;
    double *pair_d2;
    ptrdiff_t pair_cap, n_pairs;             /* n_pairs: written */
} walk_lists;

static int
cell_order(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* The child rank of octant bit in a node's mask: the set bits below it. */
static inline int
rank_below(unsigned mask, unsigned bit)
{
    unsigned x = mask & (bit - 1u);
    x = x - ((x >> 1) & 0x55u);
    x = (x & 0x33u) + ((x >> 2) & 0x33u);
    return (int)((x + (x >> 4)) & 0x0fu);
}

/* np.maximum.reduce's step: the running value unless x is larger or it
 * is nan (a nan wins and stays). */
static inline double
max_step(double best, double x)
{
    return best >= x || isnan(best) ? best : x;
}

/* The build's helpers (below), which the grouping shares. */
static inline double reduceat_sum(const double *a, ptrdiff_t c, ptrdiff_t stride);
static inline int octant_of(const double *x, const double *c);

/* build_groups: every sink descends from the root toward its own
 * octant and stops at a leaf, in a cell at most n_crit of the sinks
 * still descending share, or in a cell with no child in its octant.
 * The groups are the cells the sinks stop in, ascending; a group's rows
 * ascend.  centroid is the group's positions summed as np.add.reduceat
 * adds a segment, over its size; radius the square root of the largest
 * dot3 distance to it, h_max the largest h_i.  count holds n_nodes
 * zeros (left zero), cell / live / from n_sinks int64 each, xi 3 *
 * n_sinks doubles. */
static inline __attribute__((always_inline)) void
group_sinks(const tree_arrays *tree, sink_groups *groups, const double *pos_i,
            const double *h_i, ptrdiff_t n_crit, int64_t *count, int64_t *cell,
            int64_t *live, int64_t *from, double *xi)
{
    ptrdiff_t n_i = groups->n_sinks, n_live = n_i, n_groups = 0;
    for (ptrdiff_t i = 0; i < n_i; i++) {
        cell[i] = 0;
        live[i] = i;
    }
    while (n_live) {  /* one tree level per pass */
        for (ptrdiff_t k = 0; k < n_live; k++)
            count[from[k] = cell[live[k]]]++;
        ptrdiff_t moved = 0;
        for (ptrdiff_t k = 0; k < n_live; k++) {
            ptrdiff_t i = (ptrdiff_t)live[k], v = (ptrdiff_t)from[k];
            if (tree->leaf_start[v] >= 0 || count[v] <= n_crit)
                continue;
            unsigned mask = tree->mask[v];
            unsigned bit = 1u << octant_of(pos_i + 3 * i, tree->center + 3 * v);
            if (!(mask & bit))
                continue;  /* drifted out of the cells: keeps this one */
            cell[i] = tree->first_child[v] + rank_below(mask, bit);
            live[moved++] = i;
        }
        for (ptrdiff_t k = 0; k < n_live; k++)
            count[from[k]] = 0;
        n_live = moved;
    }

    int64_t *cells = from;  /* the distinct cells, then ascending */
    for (ptrdiff_t i = 0; i < n_i; i++)
        if (count[cell[i]]++ == 0)
            cells[n_groups++] = cell[i];
    qsort(cells, (size_t)n_groups, sizeof *cells, cell_order);
    groups->ptr[0] = 0;
    for (ptrdiff_t g = 0; g < n_groups; g++) {
        groups->ptr[g + 1] = groups->ptr[g] + count[cells[g]];
        count[cells[g]] = groups->ptr[g];  /* now the group's next slot */
    }
    for (ptrdiff_t i = 0; i < n_i; i++)
        groups->order[count[cell[i]]++] = i;
    for (ptrdiff_t g = 0; g < n_groups; g++)
        count[cells[g]] = 0;
    groups->n_groups = n_groups;

    for (ptrdiff_t g = 0; g < n_groups; g++) {
        const int64_t *rows = groups->order + groups->ptr[g];
        ptrdiff_t m = (ptrdiff_t)(groups->ptr[g + 1] - groups->ptr[g]);
        double *c = groups->centroid + 3 * g, r2 = 0.0;
        for (ptrdiff_t i = 0; i < m; i++)
            for (int k = 0; k < 3; k++)
                xi[3 * i + k] = pos_i[3 * rows[i] + k];
        for (int k = 0; k < 3; k++)
            c[k] = reduceat_sum(xi + k, m, 3) / (double)m;
        for (ptrdiff_t i = 0; i < m; i++) {
            double d[3];
            for (int k = 0; k < 3; k++)
                d[k] = xi[3 * i + k] - c[k];
            r2 = i ? max_step(r2, dot3(d, d)) : dot3(d, d);
        }
        groups->radius[g] = sqrt(r2);
        if (h_i) {
            double h = h_i[rows[0]];
            for (ptrdiff_t i = 1; i < m; i++)
                h = max_step(h, h_i[rows[i]]);
            groups->h_max[g] = h;
        }
    }
}

/* Zero acc / jerk, then add the pull of the n_j gathered sources over
 * KernelEngine._jplan's chunks, in ascending order -- the engine's
 * serial sweep (its threaded sweep has the same bits). */
static inline __attribute__((always_inline)) void
sum_list(ptrdiff_t m, ptrdiff_t n_j, const double *xi, const double *vi,
         const double *pj, const double *vj, const double *mj,
         const double *qj, double eps2, const int64_t *self,
         ptrdiff_t j_chunk, ptrdiff_t max_chunks, double *acc, double *jerk)
{
    for (ptrdiff_t k = 0; k < 3 * m; k++)
        acc[k] = jerk[k] = 0.0;
    ptrdiff_t chunks = (n_j + j_chunk - 1) / j_chunk;
    if (chunks > max_chunks)
        chunks = max_chunks;
    if (chunks < 1)
        chunks = 1;
    ptrdiff_t base = n_j / chunks, extra = n_j % chunks, j0 = 0;
    for (ptrdiff_t c = 0; c < chunks; c++) {
        ptrdiff_t w = base + (c < extra);
        rows_add(m, w, xi, vi, pj + 3 * j0, vj + 3 * j0, mj + j0,
                 qj ? qj + 9 * j0 : NULL, eps2, self, j0, NULL, 0, acc, jerk);
        j0 += w;
    }
}

/* _neighbour_pairs for one group: the pp sources src[0, k_pp) within
 * 1.001 (radius + h_max) of the centroid survive (the group cut, in
 * surv), then each sink keeps those with dot3(pos_j - pos_i) < h_i^2,
 * strict, its own particle (self_idx, or NULL) left out -- the bits of
 * repro.grape.neighbours.within_sphere.  The survivors are gathered as
 * columns into near (4 k_pp doubles), so that each sink's distances
 * are one branch-free loop.  Rows and sources ascend. */
static inline __attribute__((always_inline)) void
emit_pairs(const tree_arrays *tree, const sink_groups *groups, ptrdiff_t g,
           const int64_t *src, ptrdiff_t k_pp, const double *pos_i,
           const double *h_i, const int64_t *self_idx, int64_t *surv,
           double *near, walk_lists *lists)
{
    const double *gc = groups->centroid + 3 * g;
    const int64_t *rows = groups->order + groups->ptr[g];
    ptrdiff_t m = (ptrdiff_t)(groups->ptr[g + 1] - groups->ptr[g]), n_surv = 0;
    double reach = 1.001 * (groups->radius[g] + groups->h_max[g]);
    double reach2 = reach * reach;
    for (ptrdiff_t c = 0; c < k_pp; c++) {
        double d[3];
        for (int k = 0; k < 3; k++)
            d[k] = tree->pos[3 * src[c] + k] - gc[k];
        if (dot3(d, d) < reach2)
            surv[n_surv++] = src[c];
    }
    double *sx = near, *sy = sx + n_surv, *sz = sy + n_surv, *dist2 = sz + n_surv;
    for (ptrdiff_t s = 0; s < n_surv; s++) {
        sx[s] = tree->pos[3 * surv[s]];
        sy[s] = tree->pos[3 * surv[s] + 1];
        sz[s] = tree->pos[3 * surv[s] + 2];
    }
    for (ptrdiff_t i = 0; i < m && n_surv; i++) {
        ptrdiff_t row = (ptrdiff_t)rows[i];
        const double *xi = pos_i + 3 * row;
        double h2 = h_i[row] * h_i[row];
        int64_t own = self_idx ? self_idx[row] : -1;
        for (ptrdiff_t s = 0; s < n_surv; s++) {
            double dr[3] = {sx[s] - xi[0], sy[s] - xi[1], sz[s] - xi[2]};
            dist2[s] = dot3(dr, dr);
        }
        for (ptrdiff_t s = 0; s < n_surv; s++) {
            if (!(dist2[s] < h2) || surv[s] == own)
                continue;
            ptrdiff_t at = lists->n_pairs++;
            if (at < lists->pair_cap) {
                lists->pair_row[at] = row;
                lists->pair_src[at] = surv[s];
                lists->pair_d2[at] = dist2[s];
            }
        }
    }
}

/* Tree forces on the sinks pos_i (vel_i NULL: zeros), grouped first.
 *
 * Group the sinks (group_sinks, into groups), then per group: walk,
 * writing the accepted nodes and the opened leaves' particles (sorted)
 * into lists; gather the sinks, the nodes (COM, COM velocity mom /
 * mass, mass, quadrupole) and the pp sources into fscratch, sum both
 * lists and write node + pp into the group's rows of acc / jerk.  A
 * sink's own particle (self_idx, or NULL) is found in the sorted pp list
 * and its column excluded.  With neighbour radii h_i (or NULL: no
 * spheres, no pairs) the walk guards the spheres and the group's
 * in-sphere pairs go to lists (emit_pairs).  iscratch holds 2 n_nodes +
 * 4 n_sinks + n int64 and then n bytes, all zero (left zero: the counts
 * and the marks), fscratch 18 n_sinks + 16 max(n, n_nodes) doubles.
 * Returns 0; 1 when a list or the pairs outgrew their capacity (then the
 * pointers and the pair count hold the sizes needed, nothing was summed
 * past a list's overflow, and later pairs were only counted); -1,
 * before touching anything, when n_crit < 1. */
ISA_CLONES int repro_tree_force(
    const tree_arrays *tree, sink_groups *groups, walk_lists *lists,
    const double *pos_i, const double *vel_i, const int64_t *self_idx,
    const double *h_i, ptrdiff_t n_crit, double theta, double eps2,
    ptrdiff_t j_chunk, ptrdiff_t max_chunks, int64_t *iscratch,
    double *fscratch, double *acc, double *jerk)
{
    const double sqrt3 = sqrt(3.0);
    ptrdiff_t n = tree->n, n_i = groups->n_sinks;
    ptrdiff_t width = n > tree->n_nodes ? n : tree->n_nodes;
    if (n_crit < 1)
        return -1;
    int64_t *queue = iscratch, *count = queue + tree->n_nodes;
    int64_t *self = count + tree->n_nodes, *surv = self + n_i;
    int64_t *cell = surv + n, *live = cell + n_i, *from = live + n_i;
    uint8_t *mark = (uint8_t *)(from + n_i);
    double *xi = fscratch, *vi = xi + 3 * n_i;
    double *node_acc = vi + 3 * n_i, *node_jerk = node_acc + 3 * n_i;
    double *pp_acc = node_jerk + 3 * n_i, *pp_jerk = pp_acc + 3 * n_i;
    double *pj = pp_jerk + 3 * n_i, *vj = pj + 3 * width;
    double *mj = vj + 3 * width, *qj = mj + width;
    ptrdiff_t n_node = 0, n_pp = 0;
    int over = 0;

    group_sinks(tree, groups, pos_i, h_i, n_crit, count, cell, live, from, xi);
    lists->node_ptr[0] = lists->pp_ptr[0] = 0;
    lists->n_pairs = 0;
    for (ptrdiff_t g = 0; g < groups->n_groups; g++) {
        const double *gc = groups->centroid + 3 * g;
        double radius = groups->radius[g];
        ptrdiff_t node0 = n_node, pp0 = n_pp, head = 0, tail = 0;
        queue[tail++] = 0;
        while (head < tail) {
            ptrdiff_t v = (ptrdiff_t)queue[head++];
            double d[3], delta[3];
            for (int k = 0; k < 3; k++)
                d[k] = tree->com[3 * v + k] - gc[k];
            double half = tree->half[v];
            int leaf = tree->leaf_start[v] >= 0;
            double margin = sqrt(dot3(d, d)) - radius;
            int accept = !leaf && margin > 0.0 && 2.0 * half < theta * margin;
            if (accept) {
                for (int k = 0; k < 3; k++)
                    delta[k] = gc[k] - tree->center[3 * v + k];
                double cheb = fmax(fmax(fabs(delta[0]), fabs(delta[1])),
                                   fabs(delta[2]));
                accept = cheb > half + radius;
                if (accept && h_i)
                    accept = sqrt(dot3(delta, delta)) - radius
                             > groups->h_max[g] + sqrt3 * half;
            }
            if (accept) {
                if (n_node < lists->node_cap)
                    lists->node_idx[n_node] = v;
                n_node++;
            } else if (leaf) {
                const int64_t *p = tree->leaf_perm + tree->leaf_start[v];
                for (int64_t k = 0; k < tree->leaf_count[v]; k++, n_pp++)
                    if (n_pp < lists->pp_cap)
                        lists->pp_idx[n_pp] = p[k];
            } else {
                for (int64_t k = 0; k < tree->n_children[v]; k++)
                    queue[tail++] = tree->first_child[v] + k;
            }
        }
        lists->node_ptr[g + 1] = n_node;
        lists->pp_ptr[g + 1] = n_pp;
        over |= n_node > lists->node_cap || n_pp > lists->pp_cap;
        if (over)
            continue;

        const int64_t *rows = groups->order + groups->ptr[g];
        const int64_t *nodes = lists->node_idx + node0;
        int64_t *src = lists->pp_idx + pp0;
        ptrdiff_t m = (ptrdiff_t)(groups->ptr[g + 1] - groups->ptr[g]);
        ptrdiff_t k_nodes = n_node - node0, k_pp = n_pp - pp0;
        /* ascending, as walk_groups sorts them: mark, then scan */
        for (ptrdiff_t c = 0; c < k_pp; c++)
            mark[src[c]] = 1;
        for (ptrdiff_t p = 0, c = 0; c < k_pp; p++) {
            src[c] = p;
            c += mark[p];
            mark[p] = 0;
        }
        if (h_i)
            emit_pairs(tree, groups, g, src, k_pp, pos_i, h_i, self_idx, surv,
                       pj, lists);
        for (ptrdiff_t i = 0; i < m; i++)
            for (int k = 0; k < 3; k++) {
                xi[3 * i + k] = pos_i[3 * rows[i] + k];
                vi[3 * i + k] = vel_i ? vel_i[3 * rows[i] + k] : 0.0;
            }
        if (k_nodes) {
            for (ptrdiff_t c = 0; c < k_nodes; c++) {
                ptrdiff_t v = (ptrdiff_t)nodes[c];
                double mass = tree->node_mass[v];
                for (int k = 0; k < 3; k++) {
                    pj[3 * c + k] = tree->com[3 * v + k];
                    vj[3 * c + k] = mass > 0.0 ? tree->mom[3 * v + k] / mass : 0.0;
                }
                mj[c] = mass;
                if (tree->quad)
                    for (int k = 0; k < 9; k++)
                        qj[9 * c + k] = tree->quad[9 * v + k];
            }
            sum_list(m, k_nodes, xi, vi, pj, vj, mj, tree->quad ? qj : NULL,
                     eps2, NULL, j_chunk, max_chunks, node_acc, node_jerk);
        }
        if (k_pp) {
            for (ptrdiff_t c = 0; c < k_pp; c++) {
                ptrdiff_t p = (ptrdiff_t)src[c];
                for (int k = 0; k < 3; k++) {
                    pj[3 * c + k] = tree->pos[3 * p + k];
                    vj[3 * c + k] = tree->vel ? tree->vel[3 * p + k] : 0.0;
                }
                mj[c] = tree->mass[p];
            }
            if (self_idx)
                for (ptrdiff_t i = 0; i < m; i++) {
                    /* np.searchsorted(src, own), kept where it is found */
                    int64_t own = self_idx[rows[i]];
                    ptrdiff_t lo = 0, hi = k_pp;
                    while (lo < hi) {
                        ptrdiff_t mid = lo + (hi - lo) / 2;
                        if (src[mid] < own)
                            lo = mid + 1;
                        else
                            hi = mid;
                    }
                    self[i] = lo < k_pp && src[lo] == own ? lo : -1;
                }
            sum_list(m, k_pp, xi, vi, pj, vj, mj, NULL, eps2,
                     self_idx ? self : NULL, j_chunk, max_chunks,
                     pp_acc, pp_jerk);
        }
        for (ptrdiff_t i = 0; i < m; i++)
            for (int k = 0; k < 3; k++) {
                ptrdiff_t at = 3 * rows[i] + k, c = 3 * i + k;
                if (k_nodes && k_pp) {
                    acc[at] = node_acc[c] + pp_acc[c];
                    jerk[at] = node_jerk[c] + pp_jerk[c];
                } else if (k_nodes) {
                    acc[at] = node_acc[c];
                    jerk[at] = node_jerk[c];
                } else {
                    acc[at] = k_pp ? pp_acc[c] : 0.0;
                    jerk[at] = k_pp ? pp_jerk[c] : 0.0;
                }
            }
    }
    return over || lists->n_pairs > lists->pair_cap;
}

/* -- the tree build --------------------------------------------------------
 *
 * The host half of the GRAPE tree scheme: predict every source to the
 * block time and build the octree over the predicted rows, the tree
 * repro_tree_force then walks.  It reproduces repro.baselines.tree's
 * Octree._build and _aggregate bit for bit: the same level-synchronous
 * split (a stable bucketing by octant inside each over-full cell stands
 * in for numpy's stable argsort on parent * 8 + octant), so the same
 * breadth-first numbering, octant-sorted children, leaf_perm and
 * depth-60 cut-off; and every sum in the order np.add.reduceat adds it
 * (reduceat_sum below; tests/test_tree_build.py pins numpy to that
 * form).  The node arrays mirror the Octree fields of the same names
 * (repro.accel.native mirrors this struct). */

typedef struct {
    ptrdiff_t cap;                           /* rows of every node array */
    double *center, *half, *mass, *com, *mom;
    int64_t *parent, *octant, *first_child, *n_children;
    int64_t *leaf_start, *leaf_count;
    uint8_t *mask;                           /* octants that have a child */
    int64_t *leaf_perm;                      /* n */
    int64_t *level_offsets;                  /* TREE_LEVELS + 1 */
    ptrdiff_t n_nodes, n_leaves, n_levels;   /* written by the build */
} tree_nodes;

#define TREE_CUT_LEVEL 60                    /* a deeper cell is a leaf */
#define TREE_LEVELS (TREE_CUT_LEVEL + 2)
#define TREE_BAD_INPUT (-1)
#define TREE_FULL 1

static double pairwise_halves(const double *a, ptrdiff_t n, ptrdiff_t stride);

/* numpy's pairwise summation of n doubles stride apart
 * (DOUBLE_pairwise_sum): a left fold from -0.0 below eight, eight
 * interleaved accumulators folded in one tree up to 128, halves on
 * multiples of eight above.  Always inlined: a call from an AVX clone
 * into baseline code costs the tree build ten times its arithmetic. */
static inline __attribute__((always_inline)) double
pairwise_sum(const double *a, ptrdiff_t n, ptrdiff_t stride)
{
    if (n < 8) {
        double res = -0.0;
        for (ptrdiff_t i = 0; i < n; i++)
            res += a[i * stride];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        ptrdiff_t i;
        for (int k = 0; k < 8; k++)
            r[k] = a[k * stride];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[(i + k) * stride];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i * stride];
        return res;
    }
    return pairwise_halves(a, n, stride);
}

/* pairwise_sum above 128: the rare long leaf at the depth cut-off. */
static double
pairwise_halves(const double *a, ptrdiff_t n, ptrdiff_t stride)
{
    ptrdiff_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2, stride)
           + pairwise_sum(a + n2 * stride, n - n2, stride);
}

/* One segment of np.add.reduceat: its first value, then the rest as one
 * reduction added to it, a[0] + (((a[1] + a[2]) + ...) + a[c-1]). */
static inline double
reduceat_sum(const double *a, ptrdiff_t c, ptrdiff_t stride)
{
    return c > 1 ? a[0] + pairwise_sum(a + stride, c - 1, stride) : a[0];
}

/* The octant of row x in the cell centred at c. */
static inline int
octant_of(const double *x, const double *c)
{
    return (x[0] > c[0]) + 2 * (x[1] > c[1]) + 4 * (x[2] > c[2]);
}

/* Predict every resident row (x v a j at times t) to t_now into pos /
 * vel, then build the octree of the n particles pos (vel: their
 * velocities, or NULL for zero momentum) with masses mass and at most
 * leaf_size per leaf above the cut-off.  t NULL: no prediction, pos /
 * vel are the particles as given.  Fills out's node arrays, leaf_perm
 * and level_offsets and sets its counts.  iscratch holds 2n int64,
 * fscratch 4 * cap + 10n doubles and then n bytes.  Returns 0;
 * TREE_FULL when the tree has more than out->cap nodes (the arrays then
 * hold nothing usable); TREE_BAD_INPUT, before touching anything, for n
 * or leaf_size < 1. */
ISA_CLONES int repro_tree_build(
    ptrdiff_t n, const double *x, const double *v, const double *a,
    const double *j, const double *t, double t_now,
    double *pos, double *vel, const double *mass, ptrdiff_t leaf_size,
    tree_nodes *out, int64_t *iscratch, double *fscratch)
{
    ptrdiff_t cap = out->cap;
    if (n < 1 || leaf_size < 1 || cap < 1)
        return TREE_BAD_INPUT;
    if (t)
        for (ptrdiff_t r = 0; r < n; r++)
            predict_row(x + 3 * r, v + 3 * r, a + 3 * r, j + 3 * r,
                        t_now - t[r], pos + 3 * r, vel + 3 * r);
    int64_t *idx = iscratch, *next = idx + n;
    double *psum = fscratch, *count = psum + 3 * cap, *gather = count + cap;
    uint8_t *oct = (uint8_t *)(gather + 10 * n);  /* a cell's octants */

    /* the root cube: pos.min / pos.max along each axis (nan wins) */
    double lo[3], hi[3], extent;
    for (int k = 0; k < 3; k++)
        lo[k] = hi[k] = pos[k];
    for (ptrdiff_t r = 1; r < n; r++)
        for (int k = 0; k < 3; k++) {
            double c = pos[3 * r + k];
            lo[k] = c < lo[k] || isnan(c) ? c : lo[k];
            hi[k] = c > hi[k] || isnan(c) ? c : hi[k];
        }
    extent = hi[0] - lo[0];
    for (int k = 1; k < 3; k++) {
        double e = hi[k] - lo[k];
        extent = e > extent || isnan(e) ? e : extent;
    }
    double half0 = 0.5 * extent;
    half0 = (1e-12 > half0 ? 1e-12 : half0) * 1.0000001;
    for (int k = 0; k < 3; k++)
        out->center[k] = 0.5 * (lo[k] + hi[k]);
    out->half[0] = half0;
    out->parent[0] = -1;
    out->octant[0] = 0;
    out->leaf_count[0] = n;  /* a node's population until it is processed */
    for (ptrdiff_t r = 0; r < n; r++)
        idx[r] = r;

    /* level by level: idx holds the level's particles grouped by node
     * in node order, ascending inside a node */
    ptrdiff_t n_nodes = 1, n_leaves = 0, cursor = 0, begin = 0, level = 0;
    out->level_offsets[0] = 0;
    for (;;) {
        ptrdiff_t end = n_nodes, read = 0, write = 0;
        out->level_offsets[level + 1] = end;
        for (ptrdiff_t nd = begin; nd < end; nd++) {
            ptrdiff_t c = (ptrdiff_t)out->leaf_count[nd];
            const int64_t *p = idx + read;
            const double *ctr = out->center + 3 * nd;
            read += c;
            count[nd] = (double)c;
            out->first_child[nd] = -1;
            out->n_children[nd] = 0;
            out->mask[nd] = 0;
            if (c <= leaf_size || level > TREE_CUT_LEVEL) {
                out->leaf_start[nd] = cursor;
                for (ptrdiff_t i = 0; i < c; i++)
                    out->leaf_perm[cursor + i] = p[i];
                cursor += c;
                n_leaves++;
                continue;
            }
            out->leaf_start[nd] = -1;
            out->leaf_count[nd] = 0;
            ptrdiff_t fill[8] = {0};
            for (ptrdiff_t i = 0; i < c; i++)
                fill[oct[i] = octant_of(pos + 3 * p[i], ctr)]++;
            double qh = out->half[nd] * 0.5;
            for (int o = 0, at = 0; o < 8; o++) {
                ptrdiff_t size = fill[o];
                if (!size)
                    continue;
                if (n_nodes == cap)
                    return TREE_FULL;
                ptrdiff_t ch = n_nodes++;
                if (!out->n_children[nd])
                    out->first_child[nd] = ch;
                out->n_children[nd]++;
                out->mask[nd] |= (uint8_t)(1u << o);
                for (int k = 0; k < 3; k++)
                    out->center[3 * ch + k] =
                        ctr[k] + ((o >> k) & 1 ? 1.0 : -1.0) * qh;
                out->half[ch] = qh;
                out->parent[ch] = nd;
                out->octant[ch] = o;
                out->leaf_count[ch] = size;
                fill[o] = write + at;  /* now the octant's first slot */
                at += size;
            }
            for (ptrdiff_t i = 0; i < c; i++)
                next[fill[oct[i]]++] = p[i];
            write += c;
        }
        if (write == 0)
            break;
        int64_t *swap = idx;
        idx = next;
        next = swap;
        begin = end;
        level++;
    }
    out->n_nodes = n_nodes;
    out->n_leaves = n_leaves;
    out->n_levels = level + 1;

    /* the leaves' sums over their leaf_perm slices, as columns m, m x,
     * x, m v for reduceat; then every internal node, deepest first, adds
     * its children's sums to 0.0 (com holds sum m x until the end) */
    for (ptrdiff_t nd = 0; nd < n_nodes; nd++) {
        if (out->leaf_start[nd] < 0)
            continue;
        ptrdiff_t c = (ptrdiff_t)out->leaf_count[nd];
        const int64_t *p = out->leaf_perm + out->leaf_start[nd];
        for (ptrdiff_t i = 0; i < c; i++) {
            ptrdiff_t r = (ptrdiff_t)p[i];
            double m = mass[r];
            gather[i] = m;
            for (int k = 0; k < 3; k++) {
                gather[(1 + k) * c + i] = m * pos[3 * r + k];
                gather[(4 + k) * c + i] = pos[3 * r + k];
                gather[(7 + k) * c + i] = vel ? m * vel[3 * r + k] : 0.0;
            }
        }
        out->mass[nd] = reduceat_sum(gather, c, 1);
        for (int k = 0; k < 3; k++) {
            out->com[3 * nd + k] = reduceat_sum(gather + (1 + k) * c, c, 1);
            psum[3 * nd + k] = reduceat_sum(gather + (4 + k) * c, c, 1);
            out->mom[3 * nd + k] =
                vel ? reduceat_sum(gather + (7 + k) * c, c, 1) : 0.0;
        }
    }
    for (ptrdiff_t nd = n_nodes - 1; nd >= 0; nd--) {
        ptrdiff_t fc = (ptrdiff_t)out->first_child[nd];
        ptrdiff_t nc = (ptrdiff_t)out->n_children[nd];
        if (fc < 0)
            continue;
        out->mass[nd] = 0.0 + reduceat_sum(out->mass + fc, nc, 1);
        for (int k = 0; k < 3; k++) {
            out->com[3 * nd + k] = 0.0 + reduceat_sum(out->com + 3 * fc + k, nc, 3);
            psum[3 * nd + k] = 0.0 + reduceat_sum(psum + 3 * fc + k, nc, 3);
            out->mom[3 * nd + k] =
                vel ? 0.0 + reduceat_sum(out->mom + 3 * fc + k, nc, 3) : 0.0;
        }
    }
    /* centre of mass; the centroid for a node of no positive mass */
    for (ptrdiff_t nd = 0; nd < n_nodes; nd++) {
        double m = out->mass[nd];
        for (int k = 0; k < 3; k++)
            out->com[3 * nd + k] = m > 0.0 ? out->com[3 * nd + k] / m
                                           : psum[3 * nd + k] / count[nd];
    }
    return 0;
}

/* -- the block step's host work ------------------------------------------
 *
 * One row of the block buffer holds, at these offsets, everything the
 * step keeps of an active particle between the two calls: the gathered
 * state, its step, the predicted state, then what the corrector makes
 * of it.  repro.accel.native.BLOCK_COLS is the row width. */
#define BLOCK_COLS 32
enum {
    B_POS0 = 0, B_VEL0 = 3, B_ACC0 = 6, B_JERK0 = 9, B_DT = 12,
    B_XP = 13, B_VP = 16, B_ACC1 = 19, B_JERK1 = 22,
    B_POS1 = 25, B_VEL1 = 28, B_DTNEW = 31
};

/* Return codes shared with native.py. */
#define BLOCK_BAD_INDEX (-1)
#define BLOCK_ODD_STEP 1
#define BLOCK_AT_ORIGIN 2
#define BLOCK_NOT_FINITE 3

static inline int
power_of_two(double x)
{
    int e;
    return x > 0.0 && frexp(x, &e) == 0.5;
}

/* timestep.quantize for one row (dt_old NaN: no previous step, since
 * no step compares above NaN -- numpy's grow mask says the same).  The
 * floor goes through libm's log2, not frexp: numpy's log2 rounds values
 * a few ulps below 2^k up to k and libm's floor(log2) lands on the same
 * k there (tests/test_timestep.py holds the two to array_equal), where
 * frexp's exponent would not. */
static inline double
quantize_row(double want, double t_now, double dt_old,
             double dt_min, double dt_max)
{
    double dt = fmin(fmax(want, dt_min), dt_max);
    dt = ldexp(1.0, (int)floor(log2(dt)));
    if (dt > dt_old) {
        /* commensurability: t must sit on the doubled-step grid
         * (np.isclose(s, np.round(s), rtol=0, atol=1e-9)) */
        double doubled = dt_old * 2.0;
        double s = t_now / doubled;
        double allowed = fabs(s - nearbyint(s)) <= 1e-9 ? doubled : dt_old;
        if (!(dt <= allowed))
            dt = allowed;
    }
    return dt;
}

/* sqrt(add.reduce(x * x)): numpy's row reduce is sequential. */
static inline double
norm3(const double *x)
{
    return sqrt((x[0] * x[0] + x[1] * x[1]) + x[2] * x[2]);
}

/* KeplerField.acc_jerk at (x, v), added into (a, j).  Returns non-zero
 * for a particle at the origin. */
static inline int
kepler_add(double m, const double *x, const double *v, double *a, double *j)
{
    double r2 = dot3(x, x);
    double inv_r3 = 1.0 / (r2 * sqrt(r2));
    double w = 3.0 * (dot3(x, v) / r2);
    for (int k = 0; k < 3; k++) {
        a[k] = a[k] + (-m * x[k]) * inv_r3;
        j[k] = j[k] + -m * (v[k] * inv_r3 - (w * x[k]) * inv_r3);
    }
    return r2 == 0.0;
}

/* Gather the active rows of the resident arrays into the block buffer
 * and predict each over its own step, as the NumPy step does.  Returns
 * 0; BLOCK_BAD_INDEX before touching anything when an active entry is
 * outside [0, n); BLOCK_ODD_STEP when some step is not a power of two
 * (the corrector's dt^3..dt^5 are exact only on the block grid, so that
 * block must take the NumPy step). */
ISA_CLONES int repro_block_predict(
    ptrdiff_t n, ptrdiff_t n_i, const int64_t *active,
    const double *pos, const double *vel,
    const double *acc, const double *jerk, const double *dt,
    double *block)
{
    int odd = 0;
    for (ptrdiff_t i = 0; i < n_i; i++)
        if (active[i] < 0 || active[i] >= n)
            return BLOCK_BAD_INDEX;
    for (ptrdiff_t i = 0; i < n_i; i++) {
        ptrdiff_t r = (ptrdiff_t)active[i];
        double *b = block + BLOCK_COLS * i;
        for (int k = 0; k < 3; k++) {
            b[B_POS0 + k] = pos[3 * r + k];
            b[B_VEL0 + k] = vel[3 * r + k];
            b[B_ACC0 + k] = acc[3 * r + k];
            b[B_JERK0 + k] = jerk[3 * r + k];
        }
        b[B_DT] = dt[r];
        odd |= !power_of_two(dt[r]);
        predict_row(b + B_POS0, b + B_VEL0, b + B_ACC0, b + B_JERK0,
                    b[B_DT], b + B_XP, b + B_VP);
    }
    return odd ? BLOCK_ODD_STEP : 0;
}

/* Finish the block repro_block_predict started: add the Kepler field of
 * mass kepler_m (when kepler is set) at the predicted state to the
 * backend's acc1 / jerk1, apply the Hermite corrector, take the Aarseth
 * step and quantise it -- every row into the buffer first.  Then, only
 * if no row is at the origin (BLOCK_AT_ORIGIN) and every corrected
 * position and velocity is finite (BLOCK_NOT_FINITE), scatter pos vel
 * acc jerk t dt into the resident arrays.  A non-zero return has
 * written nothing outside the buffer. */
ISA_CLONES int repro_block_correct(
    ptrdiff_t n, ptrdiff_t n_i, const int64_t *active,
    const double *acc1, const double *jerk1,
    int kepler, double kepler_m, double t_next,
    double eta, double dt_min, double dt_max, double *block,
    double *pos, double *vel, double *acc, double *jerk,
    double *t, double *dt)
{
    int origin = 0, finite = 1;
    for (ptrdiff_t i = 0; i < n_i; i++)
        if (active[i] < 0 || active[i] >= n)
            return BLOCK_BAD_INDEX;
    for (ptrdiff_t i = 0; i < n_i; i++) {
        double *b = block + BLOCK_COLS * i;
        double *a1 = b + B_ACC1, *j1 = b + B_JERK1;
        for (int k = 0; k < 3; k++) {
            a1[k] = acc1[3 * i + k];
            j1[k] = jerk1[3 * i + k];
        }
        if (kepler)
            origin |= kepler_add(kepler_m, b + B_XP, b + B_VP, a1, j1);

        /* hermite.correct; on the block grid h is a power of two, so
         * the powers are exact however numpy forms them */
        double h = b[B_DT], h2 = h * h, h3 = h2 * h, h4 = h3 * h, h5 = h4 * h;
        double snap[3], crackle[3];
        for (int k = 0; k < 3; k++) {
            double da = b[B_ACC0 + k] - a1[k];
            double a2 = (-6.0 * da - h * (4.0 * b[B_JERK0 + k] + 2.0 * j1[k])) / h2;
            double a3 = (12.0 * da + (6.0 * h) * (b[B_JERK0 + k] + j1[k])) / h3;
            double x1 = (b[B_XP + k] + (h4 / 24.0) * a2) + (h5 / 120.0) * a3;
            double v1 = (b[B_VP + k] + (h3 / 6.0) * a2) + (h4 / 24.0) * a3;
            finite &= isfinite(x1) && isfinite(v1);
            b[B_POS1 + k] = x1;
            b[B_VEL1 + k] = v1;
            snap[k] = a2 + h * a3;
            crackle[k] = a3;
        }

        /* timestep.aarseth_dt, then quantize */
        double an = norm3(a1), jn = norm3(j1);
        double sn = norm3(snap), cn = norm3(crackle);
        double num = an * sn + jn * jn, den = jn * cn + sn * sn;
        double want = (den == 0.0 || num == 0.0) ? INFINITY
                                                  : sqrt(eta * num / den);
        b[B_DTNEW] = quantize_row(want, t_next, h, dt_min, dt_max);
    }
    if (origin)
        return BLOCK_AT_ORIGIN;
    if (!finite)
        return BLOCK_NOT_FINITE;
    for (ptrdiff_t i = 0; i < n_i; i++) {
        ptrdiff_t r = (ptrdiff_t)active[i];
        const double *b = block + BLOCK_COLS * i;
        for (int k = 0; k < 3; k++) {
            pos[3 * r + k] = b[B_POS1 + k];
            vel[3 * r + k] = b[B_VEL1 + k];
            acc[3 * r + k] = b[B_ACC1 + k];
            jerk[3 * r + k] = b[B_JERK1 + k];
        }
        t[r] = t_next;
        dt[r] = b[B_DTNEW];
    }
    return 0;
}

/* timestep.quantize on n values: the quantisation repro_block_correct
 * applies, exported once more so it can be held to numpy directly.
 * dt_old may be NULL (startup: no growth rule). */
ISA_CLONES void repro_quantize(
    ptrdiff_t n, const double *want, const double *t_now,
    const double *dt_old, double dt_min, double dt_max, double *out)
{
    for (ptrdiff_t i = 0; i < n; i++)
        out[i] = quantize_row(want[i], t_now[i], dt_old ? dt_old[i] : NAN,
                              dt_min, dt_max);
}
