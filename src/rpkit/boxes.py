"""Matrix model of two-string pictures: reflections, rotation, and the SFT.

A Box22 stores a transformation with two input and two output strings of
dimension d as a (d*d) x (d*d) matrix T[(o1,o2),(i1,i2)], inputs at the
bottom left-to-right, outputs at the top left-to-right.  Vertical stacking is
the matrix product.  The maps below are pure index bookkeeping:

    adjoint  = vertical reflection  = conjugate transpose
    theta    = horizontal reflection: conj(T[(o2,o1),(i2,i1)])
    rot_pi   = 180-degree rotation:   T[(i2,i1),(o2,o1)]
    sft      = 90-degree rotation (one-step cyclic shift of boundary strings):
               sft(T)[(a,c),(b,e)] = T[(c,e),(a,b)]

so rot_pi(theta(T)) = adjoint(T) holds exactly, sft^4 = id exactly, and the
horizontal (convolution) product X * Y = sft(sft^-1(X) sft^-1(Y)) satisfies
sft(T S) = sft(T) * sft(S) by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import root_table
from .errors import InvalidArgument


@dataclass
class Box22:
    """Two-in/two-out box over strings of dimension d."""

    data: np.ndarray
    d: int

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape != (self.d * self.d, self.d * self.d):
            raise InvalidArgument(
                f"Box22 data must be {self.d * self.d} x {self.d * self.d}")

    def _four(self) -> np.ndarray:
        return self.data.reshape(self.d, self.d, self.d, self.d)

    def __matmul__(self, other: "Box22") -> "Box22":
        if self.d != other.d:
            raise InvalidArgument("string dimensions differ")
        return Box22(self.data @ other.data, self.d)

    def __add__(self, other: "Box22") -> "Box22":
        if self.d != other.d:
            raise InvalidArgument("string dimensions differ")
        return Box22(self.data + other.data, self.d)

    def __rmul__(self, scalar) -> "Box22":
        return Box22(complex(scalar) * self.data, self.d)


def identity_box(d: int) -> Box22:
    return Box22(np.eye(d * d, dtype=complex), d)


def adjoint(T: Box22) -> Box22:
    return Box22(T.data.conj().T, T.d)


def theta(T: Box22) -> Box22:
    """Horizontal reflection: mirror both index pairs, conjugate entries."""
    f = T._four()
    return Box22(np.conj(np.einsum("abcd->badc", f)).reshape(T.data.shape), T.d)


def rot_pi(T: Box22) -> Box22:
    """180-degree rotation: transpose with the same left-right mirror."""
    f = T._four()
    return Box22(np.einsum("abcd->dcba", f).reshape(T.data.shape), T.d)


def sft(T: Box22) -> Box22:
    """String Fourier transform: sft(T)[(a,c),(b,e)] = T[(c,e),(a,b)]."""
    f = T._four()
    return Box22(np.einsum("ceab->acbe", f).reshape(T.data.shape), T.d)


def sft_inv(T: Box22) -> Box22:
    f = T._four()
    return Box22(np.einsum("acbe->ceab", f).reshape(T.data.shape), T.d)


def star_product(X: Box22, Y: Box22) -> Box22:
    """Horizontal (convolution) product: sft of the product of preimages."""
    if X.d != Y.d:
        raise InvalidArgument("string dimensions differ")
    return sft(sft_inv(X) @ sft_inv(Y))


def group_box(w) -> Box22:
    """Embed a Z_d group-algebra element sum_k w_k g^k as a circulant box.

    g^k acts as shift^k on the first string and its transpose on the second,
    so products of boxes realize cyclic convolution of the sequences.
    """
    w = np.asarray(w, dtype=complex)
    d = len(w)
    if d < 2:
        raise InvalidArgument("group algebra needs d >= 2")
    S = np.zeros((d, d))
    for i in range(d):
        S[(i + 1) % d, i] = 1.0
    out = np.zeros((d * d, d * d), dtype=complex)
    P = np.eye(d)
    for k in range(d):
        out += w[k] * np.kron(P, P.T)
        P = S @ P
    return Box22(out, d)


def dft_zd(v) -> np.ndarray:
    """Un-normalized DFT F[j] = sum_k v_k q^(jk), q = exp(2*pi*i/d), with
    q^(jk) = zeta^(2 (jk mod d)) read off algebra.root_table."""
    v = np.asarray(v, dtype=complex)
    d = len(v)
    if d < 2:
        raise InvalidArgument("DFT needs d >= 2")
    j = np.arange(d)
    return root_table(d)[2 * (np.outer(j, j) % d)] @ v


def cyclic_convolve(u, v) -> np.ndarray:
    """(u conv v)[k] = sum_j u_j v_{(k-j) mod d}."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if len(u) != len(v):
        raise InvalidArgument("sequence lengths differ")
    d = len(u)
    return np.array([sum(u[j] * v[(k - j) % d] for j in range(d)) for k in range(d)])
