"""The per-sink frontier walk, kept as an independent test oracle.

This was ``Octree.accelerations(walk="persink")`` until PR 22: an
(i, node) pair frontier expanded level by level, one MAC test per
sink, leaves summed sink by sink in python.  It shares nothing with
the grouped walk but the tree arrays, which is what makes it worth
keeping beside ``tests/test_tree_walk.py`` and
``tests/test_kepler_prop_quadrupole.py`` — 22x slower than the grouped
walk, so not a product path.  Counters land in ``tree.stats`` like the
product walk's.
"""

import numpy as np

from repro.baselines.tree import concat_ranges


def persink_accelerations(tree, pos_i, theta, eps, vel_i=None,
                          exclude_self=None):
    """Tree forces on ``pos_i``; returns ``(acc, jerk_or_None)``."""
    pos_i = np.atleast_2d(np.asarray(pos_i, dtype=np.float64))
    n_i = pos_i.shape[0]
    want_jerk = tree.vel is not None and vel_i is not None
    if want_jerk:
        vel_i = np.atleast_2d(np.asarray(vel_i, dtype=np.float64))
    acc = np.zeros((n_i, 3))
    jerk = np.zeros((n_i, 3)) if want_jerk else None
    eps2 = float(eps) ** 2

    # frontier of (sink, node) pairs
    pi = np.arange(n_i, dtype=np.int64)
    nodes = np.full(n_i, tree.root, dtype=np.int64)

    while pi.size:
        d = tree.node_com[nodes] - pos_i[pi]
        dist2 = np.einsum("ij,ij->i", d, d)
        size = 2.0 * tree.node_half[nodes]
        is_leaf = tree.node_leaf_start[nodes] >= 0
        accept = (size * size < theta * theta * dist2) & ~is_leaf
        if np.any(accept):
            # A cube that contains the sink can satisfy the opening
            # criterion once theta > 2/sqrt(3) (the sink is within
            # sqrt(3)/2 * size of the COM) yet its monopole would
            # absorb the sink's own mass — always open such nodes.
            delta = pos_i[pi] - tree.node_center[nodes]
            inside = np.abs(delta).max(axis=1) <= tree.node_half[nodes]
            accept &= ~inside

        # 1) accepted internal nodes: monopole contribution
        if np.any(accept):
            ai = pi[accept]
            an = nodes[accept]
            dr = tree.node_com[an] - pos_i[ai]
            r2 = np.einsum("ij,ij->i", dr, dr) + eps2
            # eps = 0 with a sink exactly on a node COM divides by
            # zero; keep the inf (the term is genuinely singular
            # there) but silence the runtime warning.
            with np.errstate(divide="ignore"):
                inv_r3 = 1.0 / (r2 * np.sqrt(r2))
            contrib = (tree.node_mass[an] * inv_r3)[:, None] * dr
            if tree.quadrupole:
                # a_quad = Q s / r^5 - (5/2)(s^T Q s) s / r^7 with
                # s = sink - com = -dr
                s = -dr
                q = tree.node_quad[an]
                qs = np.einsum("ijk,ik->ij", q, s)
                sqs = np.einsum("ij,ij->i", s, qs)
                inv_r5 = inv_r3 / r2
                inv_r7 = inv_r5 / r2
                contrib = contrib + qs * inv_r5[:, None] - (
                    2.5 * sqs * inv_r7
                )[:, None] * s
            np.add.at(acc, ai, contrib)
            if want_jerk:
                node_mass = tree.node_mass[an][:, None]
                node_vel = np.divide(
                    tree.node_mom[an],
                    node_mass,
                    out=np.zeros_like(tree.node_mom[an]),
                    where=node_mass > 0,
                )
                dv = node_vel - vel_i[ai]
                rv = np.einsum("ij,ij->i", dr, dv)
                jc = (tree.node_mass[an] * inv_r3)[:, None] * dv - (
                    3.0 * tree.node_mass[an] * inv_r3 * rv / r2
                )[:, None] * dr
                np.add.at(jerk, ai, jc)
            tree.stats.node_interactions += int(accept.sum())

        # 2) leaves: direct particle sums
        leaf_sel = is_leaf
        if np.any(leaf_sel):
            li = pi[leaf_sel]
            ln = nodes[leaf_sel]
            for sink, node in zip(li, ln):
                start = tree.node_leaf_start[node]
                count = tree.node_leaf_count[node]
                src = tree.leaf_perm[start : start + count]
                dr = tree.pos[src] - pos_i[sink]
                dist2 = np.einsum("ij,ij->i", dr, dr)
                r2 = dist2 + eps2
                if exclude_self is not None:
                    mask = src == exclude_self[sink]
                    r2[mask] = np.inf
                with np.errstate(divide="ignore"):
                    inv_r3 = 1.0 / (r2 * np.sqrt(r2))
                w = tree.mass[src] * inv_r3
                acc[sink] += (w[:, None] * dr).sum(axis=0)
                if want_jerk:
                    dv = tree.vel[src] - vel_i[sink]
                    rv = np.einsum("ij,ij->i", dr, dv)
                    jerk[sink] += (
                        (w[:, None] * dv) - (3.0 * w * rv / r2)[:, None] * dr
                    ).sum(axis=0)
                tree.stats.pp_interactions += count

        # 3) rejected internal nodes expand to children — CSR
        #    fancy-index, same (sink, child) order the recursive
        #    frontier produced
        expand = ~accept & ~is_leaf
        if np.any(expand):
            en = nodes[expand]
            reps = tree.node_n_children[en]
            pi = np.repeat(pi[expand], reps)
            nodes = concat_ranges(tree.node_first_child[en], reps)
        else:
            pi = np.empty(0, dtype=np.int64)
            nodes = np.empty(0, dtype=np.int64)

    return acc, jerk
