"""Test-side reference computations, written apart from the package's
closed forms so that tests can check one against the other."""

from collections import Counter

import numpy as np

from augdes.bounds import bound_quantities


def trace_identities(ib, d):
    """Both sides of the two trace identities of an equireplicate primal
    with common replication r and block size k:

        tr(C_dual+)                 = (r/k) tr(C+) + (b - v)/k
        tr(R^-1 N C_dual+ N^T R^-1) = (v/b) tr(C_dual+) - (b - 1)/r

    as ((lhs1, rhs1), (lhs2, rhs2)), from ib = `criteria.intrablock(d)`."""
    (r,) = set(d.replications)
    k = d.uniform_block_size()
    t_c = float(np.trace(ib.c_plus))
    t_dual = float(np.trace(ib.c_dual_plus))
    first = (t_dual, (r / k) * t_c + (d.b - d.v) / k)
    g = d.incidence / float(r)
    sandwich = float(np.sum((g @ ib.c_dual_plus) * g))
    second = (sandwich, (d.v / d.b) * t_dual - (d.b - 1) / r)
    return first, second


def low_overlap_reference(d, n):
    """`design.low_overlap_indices` by the definition: the multiset
    intersection of every block pair counted with `Counter`, the
    lexicographically first minimal pair, then the greedy additions with
    ties to the lowest index."""

    def overlap(i, j):
        return sum((Counter(d.blocks[i - 1]) & Counter(d.blocks[j - 1])).values())

    if n == 1:
        return (1,)
    _, first, second = min((overlap(i, j), i, j) for i in range(1, d.b + 1) for j in range(i + 1, d.b + 1))
    chosen = [first, second]
    while len(chosen) < n:
        _, pick = min((max(overlap(j, c) for c in chosen), j) for j in range(1, d.b + 1) if j not in chosen)
        chosen.append(pick)
    return tuple(sorted(chosen))


def per_block_tt_bound_reference(b, v, k, counts):
    """The A_tt bound of `bounds.a_bounds` for per-block counts, with the
    pairwise excess phi(j, j') = s_j s_j' - s0^2 summed over the upper
    triangle of the b x b outer product of the counts."""
    q = bound_quantities(b, v, k)
    counts = np.asarray(counts, dtype=float)
    s0 = float(counts.min())
    total = float(counts.sum())
    iu = np.triu_indices(b, k=1)
    phi_sum = float(np.sum(np.outer(counts, counts)[iu] - s0 * s0))
    return 2.0 + ((4.0 / k) * phi_sum + 2.0 * s0 * s0 * b * q.Ltilde) / (total * (total - 1.0))
