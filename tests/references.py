"""Test-side reference computations, written apart from the package's
closed forms so that tests can check one against the other."""

from collections import Counter

import numpy as np

from augdes import criteria, search
from augdes.bounds import bound_quantities
from augdes.errors import Disconnected, NotEstimable
from augdes.matrix import SymMatrix, invert
from augdes.oracle import ESTIMABLE_TOL


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


def dual_inverse(p, n, k):
    """Q = C_dual+ from P = C+ through the identity

        Q = Pi_b (I/k + N^T P N / k^2) Pi_b,   Pi_b = I - J/b,

    for one v x b incidence N with block size k, or for a stack of them
    (shape (m, v, b), with P of shape (m, v, v))."""
    b = n.shape[-1]
    q = np.swapaxes(n, -1, -2) @ p @ n / k**2
    q[..., range(b), range(b)] += 1.0 / k
    q -= q.mean(axis=-1, keepdims=True)
    q -= q.mean(axis=-2, keepdims=True)
    return q


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


def _reference_rule(a):
    """SymMatrix's rule as it was first written: a bitwise-symmetric A as it
    is, else 0.5 (A + A^T) after asserting that max |A - A^T| is within
    1e-8 max(1, max |A|)."""
    if np.array_equal(a.view(np.uint64), a.T.view(np.uint64)):
        return a
    assert np.abs(a - a.T).max() <= 1e-8 * max(1.0, np.abs(a).max())
    return 0.5 * (a + a.T)


def _reference_mp_inverse(m):
    """(M + J/n)^-1 - J/n of a centered M, as L^-T L^-1 from the Cholesky
    factor L of the shifted matrix, with the rule on M and on the inverse.
    L^-1 is np.linalg.inv's at every order, also above the package's
    `matrix.BLOCK_ORDER`, where the package inverts L by blocks."""
    m = _reference_rule(m)
    assert np.abs(m.sum(axis=1)).max() <= 1e-9
    shift = 1.0 / len(m)
    factor = np.linalg.cholesky(m + shift)
    assert factor.diagonal().min() ** 2 >= 1e-12
    factor_inv = np.linalg.inv(factor)
    return _reference_rule(factor_inv.T @ factor_inv) - shift


def reference_intrablock(d):
    """P = C+ and Q = C_dual+ of a connected primal with constant block
    size, by the arithmetic the search fixtures were recorded with:
    C = I r - N N^T/k and C_dual = k I - N^T (N/r) from identity products,
    then `_reference_mp_inverse` of each, whose np.linalg.inv of the
    Cholesky factor is kept at every order: P and Q are the package's bit
    for bit up to order `matrix.BLOCK_ORDER` and close to them above it."""
    k = d.uniform_block_size()
    n = d.incidence.astype(float)
    r = np.asarray(d.replications, dtype=float)
    v, b = n.shape
    c = np.eye(v) * r - (n @ n.T) / k
    c_dual = k * np.eye(b) - n.T @ (n / r[:, None])
    return _reference_mp_inverse(c), _reference_mp_inverse(c_dual)


def reference_components(d):
    """`design.components` by breadth-first search over the
    treatment-block incidence graph: nodes 0..b-1 are the blocks and
    b..b+v-1 the treatments, and each search starts from the lowest
    unlabelled node, so components are numbered by their lowest node."""
    b = d.b
    neighbours = [[] for _ in range(b + d.v)]
    for j, block in enumerate(d.blocks):
        for label in block:
            neighbours[j].append(b + label - 1)
            neighbours[b + label - 1].append(j)
    comp = [-1] * (b + d.v)
    count = 0
    for start in range(b + d.v):
        if comp[start] >= 0:
            continue
        comp[start] = count
        queue = [start]
        for node in queue:
            for other in neighbours[node]:
                if comp[other] < 0:
                    comp[other] = count
                    queue.append(other)
        count += 1
    return comp[:b], comp[b:], count


def contrast(m, plus, minus):
    """The (control, test) coefficients of `plus` minus `minus` for
    `oracle.gls_variance` on model m. Each side is a control 1..v or a
    test (j, w), the w-th test of block j; the tests follow the v controls
    in consecutive slots, block by block."""
    v, counts = m.design.v, m.aug.counts(m.design.b)

    def slot(effect):
        if isinstance(effect, int):
            assert 1 <= effect <= v
            return effect - 1
        j, w = effect
        assert 1 <= w <= counts[j - 1]
        return v + sum(counts[: j - 1]) + w - 1

    c = np.zeros(v + sum(counts))
    c[slot(plus)] = 1.0
    c[slot(minus)] -= 1.0
    return c


def reference_plots(d, aug):
    """The (block column, effect column) pair of every plot of d augmented
    by aug, laid out apart from `oracle`: the parameters are b blocks, v
    controls and one effect per test, blockwise; the control plots come
    block by block, then the test plots, the t-th test in column b + v + t."""
    b, v = d.b, d.v
    controls = [(j, b + label - 1) for j, block in enumerate(d.blocks) for label in block]
    test_blocks = [j for j, count in enumerate(aug.counts(b)) for _ in range(count)]
    return np.array(controls + [(j, b + v + t) for t, j in enumerate(test_blocks)], dtype=int)


def model_matrix(d, aug):
    """The n_plots x p model matrix X of `reference_plots`: a one in each
    plot's two columns."""
    plots = reference_plots(d, aug)
    x = np.zeros((len(plots), d.b + d.v + aug.total(d.b)))
    x[np.arange(len(plots))[:, None], plots] = 1.0
    return x


def reference_info(d, aug):
    """X^T X at its full order p = b + v + T, accumulated plot by plot from
    `reference_plots` without forming X."""
    p = d.b + d.v + aug.total(d.b)
    info = np.zeros((p, p))
    for block, effect in reference_plots(d, aug).tolist():
        info[block, block] += 1.0
        info[effect, effect] += 1.0
        info[block, effect] += 1.0
        info[effect, block] += 1.0
    return info


def reference_info_pinv(d, aug):
    """The Moore-Penrose inverse of X^T X = `reference_info(d, aug)` at its
    full order p, as `oracle.build_model` once took it: shift X^T X by the
    projector onto its orthonormal null basis (per component, +1 on its
    blocks and -1 on its controls and tests, normalized, with labels from
    `reference_components`), invert, and subtract the shift again."""
    comp_block, comp_control, _ = reference_components(d)
    shift = _null_projector(np.concatenate((comp_block, comp_control, np.repeat(comp_block, aug.counts(d.b)))), d.b)
    return np.linalg.inv(reference_info(d, aug) + shift) - shift


def reference_control_pinv(m):
    """S+ = `m.control_pinv` as `oracle.build_model` once took it, through
    a SymMatrix and `invert`: invert(SymMatrix(S + shift)).a - shift, the
    shift being the projector onto the null basis of S, with labels from
    `reference_components`."""
    comp_block, comp_control, _ = reference_components(m.design)
    shift = _null_projector(np.concatenate((comp_block, comp_control)), m.design.b)
    return invert(SymMatrix(m.control_info + shift)).a - shift


def _null_projector(label, b):
    """B B^T for the orthonormal null basis B of component labels: per
    component, +1 on its blocks, the first b parameters, and -1 on its
    other parameters, normalized."""
    label = np.asarray(label, dtype=int)
    basis = np.zeros((len(label), label.max() + 1))
    basis[np.arange(len(label)), label] = np.where(np.arange(len(label)) < b, 1.0, -1.0)
    basis /= np.sqrt(np.bincount(label))
    return basis @ basis.T


def reference_deviations(d, aug):
    """The four deviations (cc, tt in one block, tt across blocks, ct) of
    `oracle.verify_design`, by comparing whole matrices at order p: the
    estimability residual X^T X A - I over the control and test columns,
    X^T X = `reference_info(d, aug)` and A = `reference_info_pinv(d, aug)`,
    raises NotEstimable above ESTIMABLE_TOL in some row range; then every
    pairwise GLS variance, from the treatment block of A, is compared per
    test slot with the closed-form matrices of `criteria`."""
    b, v = d.b, d.v
    pinv = reference_info_pinv(d, aug)
    residual = reference_info(d, aug) @ pinv[:, b:]
    residual[b:, :] -= np.eye(len(residual) - b)
    worst = float(np.max(np.ptp(residual, axis=1)))
    if worst > ESTIMABLE_TOL:
        raise NotEstimable(f"projection residual {worst:.3e}")
    ib = criteria.intrablock(d)
    g = pinv[b:, b:]
    gls = np.diag(g)[:, None] + np.diag(g)[None, :] - 2.0 * g
    slot = np.repeat(np.arange(b), aug.counts(b))
    same = slot[:, None] == slot
    want_tt = 2.0 + np.where(same, 0.0, criteria.v_tt_matrix(ib)[np.ix_(slot, slot)])
    dev_tt = np.abs(gls[v:, v:] - want_tt)
    np.fill_diagonal(dev_tt, 0.0)
    return (
        float(np.max(np.abs(gls[:v, :v] - criteria.v_cc_matrix(ib)))),
        float(np.max(dev_tt[same], initial=0.0)),
        float(np.max(dev_tt[~same], initial=0.0)),
        float(np.max(np.abs(gls[:v, v:] - criteria.v_ct_matrix(ib, d)[:, slot]))),
    )


def sequential_improvement_pass(cfg, d, obj, trace):
    """`search._improvement_pass` as it was before exact scores ran in
    stacks: each candidate of a batch is built and scored exactly alone,
    by `search._objective`, in scan order; one that raises `Disconnected`
    is skipped, and an accepted design starts a new batch at the next
    label of the same occurrence, screened from its memoized P. Repeats
    are scored again. A drop-in for `search._improvement_pass`."""
    k = len(d.blocks[0])
    widest = max(1, search.MAX_BATCH_MOVES // d.v)
    first = min(-(-search.FIRST_CHUNK_MOVES // d.v), widest)
    improved = False
    o_from, t_from, width = 0, 1, first
    while o_from < d.b * k:
        limit = obj - search.MOVE_TOL + search.SCREEN_TOL * max(1.0, abs(obj))
        o_to = min(d.b * k, o_from + width)
        moves, labels, screened = search._batch(cfg, d, o_from, t_from, o_to)
        for i in np.flatnonzero(~(screened >= limit)):  # NaN is confirmed too
            o, t = int(moves[i]), int(labels[i])
            cand = search._candidate(d, o, t)
            try:
                cand_obj = search._objective(cfg, cand)
            except Disconnected:
                continue
            if cand_obj < obj - search.MOVE_TOL:
                d, obj = cand, cand_obj
                trace.append(obj)
                improved = True
                o_from, t_from, width = o, t + 1, first
                break
        else:
            o_from, t_from, width = o_to, 1, min(2 * width, widest)
    return d, obj, improved
