"""Finite-dimensional representations of U_q(sl2), the coproduct action on
tensor products, defining-relation checks, and the universal R-matrix
evaluated on pairs of representations.

On the (m+1)-dimensional representation with weight basis v_0..v_m:
    e v_k = [(q^{m-k} - q^{k-m}) / (q - q^{-1})] v_{k+1}
    f v_k = [(q^k - q^{-k}) / (q - q^{-1})] v_{k-1}
    h v_k = (2k - m) v_k,   K = q^h
All powers q^{c h} are realized diagonally on the weight basis. Every
matrix is a numpy array: a representation holds the arrays of e, f, K and
K^{-1}, the coproducts and the universal R are arrays on the tensor space,
and tensor.kron and tensor.embed fix its leg order.

The checks return residuals and pass no verdict; the caller compares them
with its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .tensor import embed, kron, state_space


class InvalidDeformation(ParameterError):
    pass


class DeformationMismatch(ParameterError):
    pass


@dataclass(frozen=True)
class RepM:
    """Spin-label m representation: matrices for e, f, K = q^h, K^{-1}."""

    m: int
    q: float
    E: np.ndarray
    F: np.ndarray
    K: np.ndarray
    Kinv: np.ndarray

    @property
    def dim(self) -> int:
        return self.m + 1

    @property
    def weights(self) -> np.ndarray:
        """Eigenvalues 2k - m of h on the weight basis."""
        return 2 * np.arange(self.m + 1) - self.m


def rep(m: int, q: float) -> RepM:
    """Build the (m+1)-dimensional representation; m + 1 is checked
    against the dense cap before any matrix is filled."""
    if m < 0:
        raise ParameterError(f"spin label must be nonnegative, got {m}")
    if q <= 0 or q == 1:
        raise InvalidDeformation(f"need q > 0 and q != 1, got {q}")
    d = m + 1
    state_space((d,))
    E = np.zeros((d, d))
    F = np.zeros((d, d))
    denom = q - 1.0 / q
    for k in range(d):
        if k + 1 < d:
            E[k + 1, k] = (q ** (m - k) - q ** (k - m)) / denom
        if k - 1 >= 0:
            F[k - 1, k] = (q**k - q ** (-k)) / denom
    Kdiag = np.array([q ** (2 * k - m) for k in range(d)])
    return RepM(m=m, q=q, E=E, F=F, K=np.diag(Kdiag), Kinv=np.diag(1.0 / Kdiag))


def check_relations(r: RepM) -> dict:
    """Max-norm residuals of the defining relations, the antipode
    anti-homomorphism, and counit consistency on the trivial rep."""
    q = r.q
    E, F, K, Kinv = r.E, r.F, r.K, r.Kinv
    Id = np.eye(r.dim)
    denom = q - 1.0 / q

    def norm(M):
        return float(np.max(np.abs(M))) if M.size else 0.0

    res = {
        "kek": norm(K @ E @ Kinv - q**2 * E),
        "kfk": norm(K @ F @ Kinv - q**-2 * F),
        "ef_commutator": norm(E @ F - F @ E - (K - Kinv) / denom),
        "k_kinv": norm(K @ Kinv - Id),
    }
    # Antipode S(e) = -K^{-1} e, S(f) = -f K, S(K) = K^{-1}; being an
    # anti-homomorphism it must reverse the commutation relation.
    SE = -Kinv @ E
    SF = -F @ K
    res["antipode_commutator"] = norm(SF @ SE - SE @ SF - (Kinv - K) / denom)
    res["antipode_kek"] = norm(K @ SE @ Kinv - q**2 * SE)
    # Counit: on the trivial (m=0) rep, e, f act as 0 and K as 1.
    if r.m == 0:
        res["counit"] = norm(E) + norm(F) + norm(K - Id)
    return res


_GEN_NAMES = ("e", "f", "k")


def coproduct(rl: RepM, rm: RepM, gen: str) -> np.ndarray:
    """Coproduct image on V_l (x) V_m:
    Delta(e) = K (x) E + E (x) 1,  Delta(f) = 1 (x) F + F (x) K^{-1},
    Delta(k) = K (x) K."""
    if rl.q != rm.q:
        raise DeformationMismatch(f"q mismatch: {rl.q} vs {rm.q}")
    if gen == "e":
        return kron(rl.K, rm.E) + kron(rl.E, np.eye(rm.dim))
    if gen == "f":
        return kron(np.eye(rl.dim), rm.F) + kron(rl.F, rm.Kinv)
    if gen == "k":
        return kron(rl.K, rm.K)
    raise ParameterError(f"generator must be one of {_GEN_NAMES}, got {gen!r}")


def opposite_coproduct(rl: RepM, rm: RepM, gen: str) -> np.ndarray:
    """The reversed coproduct Delta' = P o Delta on V_l (x) V_m: Delta on
    V_m (x) V_l with its legs swapped."""
    return embed(coproduct(rm, rl, gen), (2, 1), (rl.dim, rm.dim))


def universal_r(rl: RepM, rm: RepM) -> np.ndarray:
    """Evaluate the universal R on V_l (x) V_m.

    R = q^{(1/2) h (x) h} sum_{i>=0} (q - q^{-1})^i q^{i(i-1)/2} / [i]_q^~!
        f^i (x) e^i
    with the symmetric q-factorial [i]^~! built from (q^i - q^{-i})/(q - q^{-1}).
    The f (x) e ordering and the q^{i(i-1)/2} exponent are pinned numerically:
    they form the unique variant (within the natural family of sign and
    exponent choices) intertwining the coproduct used here with its flip.
    The sum terminates at i = min(l, m) by nilpotency of f and e. The
    product space is checked against the dense cap before anything is
    built on it.
    """
    if rl.q != rm.q:
        raise DeformationMismatch(f"q mismatch: {rl.q} vs {rm.q}")
    q = rl.q
    if q == 1:
        raise InvalidDeformation("universal R requires q != 1")
    d1, d2 = rl.dim, rm.dim
    state_space((d1, d2))
    wl = rl.weights.astype(float)
    wm = rm.weights.astype(float)
    # q^{h (x) h / 2}: diagonal with entries q^{w_a w_b / 2}. Python's
    # float power, not numpy's, which can differ in the last digit.
    cartan = np.array([q ** (wa * wb / 2.0) for wa in wl for wb in wm])
    denom = q - 1.0 / q
    Fi, Ei = np.eye(d1), np.eye(d2)
    total = kron(Fi, Ei)  # the i = 0 term, with coefficient 1
    qfact = 1.0
    # One term at a time, so at most three D x D arrays are alive.
    for i in range(1, min(rl.m, rm.m) + 1):
        Fi = rl.F @ Fi
        Ei = rm.E @ Ei
        qfact *= (q**i - q ** (-i)) / denom
        coeff = denom**i * q ** (i * (i - 1) / 2.0) / qfact
        total = total + coeff * kron(Fi, Ei)
    return cartan[:, None] * total


def universal_r_check(rl: RepM, rm: RepM) -> dict:
    """Intertwining residuals ||R Delta(x) - Delta'(x) R|| for x in {e,f,k},
    plus invertibility of R."""
    R = universal_r(rl, rm)
    res = {}
    for gen in _GEN_NAMES:
        D = coproduct(rl, rm, gen)
        Dop = opposite_coproduct(rl, rm, gen)
        res[f"intertwine_{gen}"] = float(np.max(np.abs(R @ D - Dop @ R)))
    Rinv = np.linalg.inv(R)
    res["invertibility"] = float(np.max(np.abs(R @ Rinv - np.eye(R.shape[0]))))
    return res
