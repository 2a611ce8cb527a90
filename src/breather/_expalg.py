"""Exponential-sum algebra on a finite time window.

Closed-form building blocks for Fourier-Laplace transforms of products of
causal exponential kernels over [0, T]^m.  Everything reduces to the entire
function

    g(z) = integral_0^T e^{z t} dt = (e^{zT} - 1)/z

and its divided differences: the iterated integral of e^{a u1 + b u2} over
the triangle {0 <= u1 <= u2 <= T} is the first divided difference
g[b, a+b], and the integral of e^{a u1 + b u2 + c u3} over the ordered
simplex {0 <= u1 <= u2 <= u3 <= T} is the second divided difference
g[c, b+c, a+b+c].

All of them come from one kernel through the Opitz identity

    g[x_1, ..., x_m] = T^m exp[0, x_1 T, ..., x_m T],

whose right side is the corner entry of exp of the upper bidiagonal matrix
with diagonal (0, x_1 T, ..., x_m T) and unit superdiagonal (McCurdy, Ng &
Parlett, Math. Comp. 1984).  That exponential is taken by scaling and
squaring (Al-Mohy & Higham, SIMAX 2009), so confluent and near-confluent
nodes need no special case; its diagonals are updated in place, and the
last squaring round forms only the corner.  All functions are vectorized
over numpy arrays of complex nodes.
"""

import numpy as np

# Taylor degree for nodes of modulus <= 1/2: the first dropped term of an
# m-th divided difference is (1/2)^(18-m)/(18-m)! relative, below 3e-17
# for m <= 3.
_TAYLOR_DEGREE = 17


def _exp_divided_difference(w):
    """exp[0, w_1, ..., w_m] for nodes stacked on the leading axis of w.

    Each element is scaled by its own power of two 2^-s, so that its nodes
    have modulus <= 1/2, and squared back s times; elements never mix, and
    a batch gives the same bits as its members one at a time.  The last
    squaring round forms only the returned corner X[0, m].
    """
    w = np.asarray(w, dtype=complex)
    s = np.maximum(np.frexp(2.0 * np.abs(w).max(axis=0))[1], 0)
    c = np.ldexp(1.0, -s)
    v = np.concatenate([np.zeros_like(w[:1]), w * c])
    n = len(v)
    # X = exp(B), B = diag(v) + c * superdiagonal, is upper triangular and
    # kept as its diagonals, x[d][i] = X[i, i+d].  Horner on sum_k B^k/k!
    # updates (B X)[i, j] = v_i X[i, j] + c X[i+1, j], d = n-1 down to 0.
    x = [np.ones_like(v)] + [np.zeros_like(v[d:]) for d in range(1, n)]
    vk, ck, tmp = np.empty_like(v), np.empty_like(c), np.empty_like(v)
    for k in range(_TAYLOR_DEGREE, 0, -1):
        np.divide(v, k, out=vk)
        np.divide(c, k, out=ck)
        for d in range(n - 1, 0, -1):
            np.multiply(vk[:n - d], x[d], out=x[d])
            np.multiply(ck, x[d - 1][1:], out=tmp[d:])
            np.add(x[d], tmp[d:], out=x[d])
        np.multiply(vk, x[0], out=x[0])
        np.add(1.0, x[0], out=x[0])
    # Squaring sums from 0 up, which turns -0.0 into +0.0, as Python's sum.
    top = s.max(initial=0)
    sq = [np.empty_like(row) for row in x]
    for r in range(1, top):
        for d, acc in enumerate(sq):
            acc.fill(0)
            for e in range(d + 1):
                np.multiply(x[e][:n - d], x[d - e][e:], out=tmp[d:])
                np.add(acc, tmp[d:], out=acc)
        for row, new in zip(x, sq):
            np.copyto(row, new, where=r <= s)
    corner = sum(x[e][0] * x[n - 1 - e][e] for e in range(n))
    return np.where(s >= max(top, 1), corner, x[-1][0])


def g_window(z, T):
    """g(z) = integral_0^T e^{zt} dt = (e^{zT} - 1)/z, vectorized."""
    z = np.asarray(z, dtype=complex)
    return T * _exp_divided_difference(z[None] * T)


def triangle_transform(a, b, T):
    """Integral of e^{a u1 + b u2} over {0 <= u1 <= u2 <= T}."""
    b = np.asarray(b, dtype=complex)
    nodes = np.stack(np.broadcast_arrays(b, a + b))
    return T**2 * _exp_divided_difference(nodes * T)


def simplex_transform(a, b, c, T):
    """Integral of e^{a u1 + b u2 + c u3} over {0 <= u1 <= u2 <= u3 <= T}."""
    c = np.asarray(c, dtype=complex)
    nodes = np.stack(np.broadcast_arrays(c, b + c, a + b + c))
    return T**3 * _exp_divided_difference(nodes * T)
