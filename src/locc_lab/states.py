"""Families of orthogonal maximally entangled states.

Each state is represented by the unitary u acting on Bob's side of the
standard maximally entangled state, |psi> = (I (x) u)|Phi>. Families are
built as lists of such unitaries with u_0 = I. Index flattening is row-major
everywhere: |a>(x)|b> -> a*dB + b. Lattice states are read-only views of the
constant table LATTICE, built once at import.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateStates, NotUnitary, SpecInvalid
from .numerics import as_complex, identity, is_unitary, kron

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)

# reproducible generic defaults, far from every degeneracy locus
DEFAULT_OMEGA = np.exp(2j * np.pi * 0.13)
DEFAULT_GAMMA = np.exp(2j * np.pi * 0.29)
DEFAULT_BASE_INDICES = ((0, 0), (1, 1), (2, 2), (3, 3))

# imaginary-part / phase expressions closer to degenerate than this are
# rejected; keeps the null-space analysis well-conditioned
GENERICITY_MARGIN = 1e-6


def default_alphas(k):
    """Generic unit phases alpha_i = exp(2*pi*i*(0.07 + 0.11*i))."""
    return tuple(np.exp(2j * np.pi * (0.07 + 0.11 * i)) for i in range(k))


def phase0_diag(m, phase):
    """m x m diagonal unitary: given phase at level 0, ones elsewhere."""
    t = identity(m)
    t[0, 0] = phase
    return t


def cycle_permutation(k):
    """k x k permutation matrix sending |j> to |j+1 mod k>."""
    p = np.zeros((k, k), dtype=complex)
    for j in range(k):
        p[(j + 1) % k, j] = 1.0
    return p


def block_diag(*blocks):
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one of the built-in state families.

    kind is one of "even_d", "mod3", "k_state", "lattice_triple".
    Phases must be unit modulus. lattice_indices holds tuples of Pauli labels
    (one label per qubit factor), each in 0..3 and no two equal; pairs give
    the 4x4 lattice states. The builders check these rules through validate
    alone.
    """

    kind: str
    d: int
    k: int = 3
    r: int = 1
    omega: complex = DEFAULT_OMEGA
    gamma: complex = DEFAULT_GAMMA
    alphas: tuple = ()
    lattice_indices: tuple = ()

    def validate(self):
        if self.kind not in ("even_d", "mod3", "k_state", "lattice_triple"):
            raise SpecInvalid(f"unknown family kind {self.kind!r}")
        # a NaN modulus would pass the unit-modulus test below, so reject
        # non-finite phases first
        for name, value in (("omega", self.omega), ("gamma", self.gamma)):
            if not np.isfinite(value) or abs(abs(value) - 1.0) > 1e-12:
                raise SpecInvalid(f"{name} must be finite with unit modulus, got {name}={value}")
        for a in self.alphas:
            if not np.isfinite(a) or abs(abs(a) - 1.0) > 1e-12:
                raise SpecInvalid(f"every alpha must be finite with unit modulus, got {a}")
        if self.kind == "even_d":
            if self.d < 4 or self.d % 2 != 0:
                raise SpecInvalid(f"even_d family needs even d >= 4, got d={self.d}")
        elif self.kind == "mod3":
            if self.d < 5 or (self.d - 2) % 3 != 0:
                raise SpecInvalid(f"mod3 family needs d = 2 + 3r, r >= 1, got d={self.d}")
            if self.r != (self.d - 2) // 3:
                raise SpecInvalid(f"r={self.r} inconsistent with d={self.d}")
        elif self.kind == "k_state":
            if self.k < 1:
                raise SpecInvalid(f"k_state family needs k >= 1, got k={self.k}")
            if self.r < 1:
                raise SpecInvalid(f"k_state family needs r >= 1, got r={self.r}")
            if not self.lattice_indices:
                raise SpecInvalid("k_state family needs lattice_indices")
            m = 2 ** len(self.lattice_indices[0])
            lengths = {len(t) for t in self.lattice_indices}
            if len(lengths) != 1:
                raise SpecInvalid("lattice_indices tuples must all have the same length")
            if any(not all(0 <= x <= 3 for x in t) for t in self.lattice_indices):
                raise SpecInvalid("lattice indices must lie in 0..3")
            if self.k != len(self.lattice_indices):
                raise SpecInvalid("k must equal the number of lattice_indices")
            if len({tuple(t) for t in self.lattice_indices}) != self.k:
                raise DuplicateStates(f"base lattice states must be distinct, got {self.lattice_indices}")
            if self.k > m * m:
                raise SpecInvalid(f"k={self.k} exceeds m^2={m * m}")
            if len(self.alphas) != self.k:
                raise SpecInvalid("need one alpha per state")
            if self.d != m + self.k * self.r:
                raise SpecInvalid(
                    f"d={self.d} inconsistent with m + k*r = {m + self.k * self.r}"
                )
        elif self.kind == "lattice_triple":
            pairs = self.lattice_indices
            if self.d != 4 or len(pairs) != 3 or any(len(t) != 2 for t in pairs):
                raise SpecInvalid("lattice_triple family needs d=4 and three index pairs")
            if any(not all(0 <= x <= 3 for x in t) for t in pairs):
                raise SpecInvalid("lattice indices must lie in 0..3")
            if len({tuple(t) for t in pairs}) != 3:
                raise DuplicateStates(f"need three distinct index pairs, got {pairs}")
        return self

    def genericity(self):
        """Named genericity predicates for this family, as booleans."""
        m = GENERICITY_MARGIN
        if self.kind == "even_d":
            return {
                "omega_nonreal": abs(self.omega.imag) > m,
                "gamma_nonreal": abs(self.gamma.imag) > m,
                "omega_conj_gamma_nonreal": abs((np.conj(self.omega) * self.gamma).imag) > m,
            }
        if self.kind == "mod3":
            w2 = self.omega**2
            return {
                "gamma_avoids_plus_i_omega2": abs(self.gamma - 1j * w2) > m,
                "gamma_avoids_minus_i_omega2": abs(self.gamma + 1j * w2) > m,
            }
        if self.kind == "k_state":
            out = {}
            a = self.alphas
            for j in range(1, self.k - 1):
                val = (a[0] * np.conj(a[j]) * a[1] * np.conj(a[j + 1])) ** 4
                out[f"phase_chain_{j}_nondegenerate"] = abs(val - 1.0) > m
            return out
        return {}

    @property
    def is_generic(self):
        return all(self.genericity().values())

    def to_json(self):
        def c2(z):
            return [float(np.real(z)), float(np.imag(z))]

        return {
            "kind": self.kind,
            "d": self.d,
            "k": self.k,
            "r": self.r,
            "omega": c2(self.omega),
            "gamma": c2(self.gamma),
            "alphas": [c2(a) for a in self.alphas],
            "lattice_indices": [list(t) for t in self.lattice_indices],
        }


def even_spec(d, omega=None, gamma=None):
    return FamilySpec(
        kind="even_d",
        d=d,
        omega=DEFAULT_OMEGA if omega is None else omega,
        gamma=DEFAULT_GAMMA if gamma is None else gamma,
    ).validate()


def mod3_spec(d, omega=None, gamma=None):
    return FamilySpec(
        kind="mod3",
        d=d,
        r=(d - 2) // 3 if d >= 5 else 1,
        omega=DEFAULT_OMEGA if omega is None else omega,
        gamma=DEFAULT_GAMMA if gamma is None else gamma,
    ).validate()


def k_spec(k=4, r=1, indices=None, alphas=None):
    indices = DEFAULT_BASE_INDICES[:k] if indices is None else tuple(tuple(t) for t in indices)
    m = 2 ** len(indices[0]) if indices else 1
    return FamilySpec(
        kind="k_state",
        d=m + k * r,
        k=k,
        r=r,
        alphas=default_alphas(k) if alphas is None else tuple(alphas),
        lattice_indices=indices,
    ).validate()


@dataclass(frozen=True)
class MaxEntSet:
    """A set of orthogonal maximally entangled states, one unitary per state."""

    d: int
    unitaries: tuple
    spec: FamilySpec = None
    label: str = ""

    @property
    def k(self):
        return len(self.unitaries)

    def state(self, i):
        return state_of(self.unitaries[i], checked=False)


def std_mes(d):
    """Standard maximally entangled state (1/sqrt(d)) sum_j |j>|j>."""
    if d < 2:
        raise SpecInvalid(f"need d >= 2, got {d}")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def state_of(u, checked=True):
    """State vector (I (x) u)|Phi> for a d x d unitary u."""
    u = as_complex(u)
    if checked and not is_unitary(u):
        raise NotUnitary("state_of requires a unitary matrix")
    d = u.shape[0]
    phi = std_mes(d).reshape(d, d)
    return (phi @ u.T).reshape(-1)


def require_spec(spec, kind, allow_degenerate=False, refusal="pass allow_degenerate to force"):
    """The validated spec, refused unless it has `kind` and, unless
    allow_degenerate, phases off every degeneracy locus."""
    spec.validate()
    if spec.kind != kind:
        raise SpecInvalid(f"expected a {kind!r} spec, got {spec.kind!r}")
    if not (allow_degenerate or spec.is_generic):
        bad = ", ".join(name for name, ok in spec.genericity().items() if not ok)
        raise SpecInvalid(f"degenerate phases ({bad}); {refusal}")
    return spec


def _checked(mes, label):
    """mes, unless it has a non-unitary element or non-orthogonal pair."""
    d = mes.d
    report = check_orthogonal_mes(mes)
    for i, r in enumerate(report["unitarity_residuals"]):
        if r > 1e-10 * max(1.0, np.sqrt(d)):
            raise SpecInvalid(f"{label}: element {i} is not unitary")
    for (i, j), t in report["pairwise_trace_residuals"].items():
        if t > 1e-9 * max(1.0, d):
            raise SpecInvalid(f"{label}: states {i},{j} not orthogonal (|tr|={t:.3e})")
    return mes


def build_even_family(spec, allow_degenerate=False):
    """Three-state family in even dimension d = 2m.

    u_1 = phase0_diag(m, omega) (x) X and u_2 = phase0_diag(m, gamma) (x) Z,
    so the top-left 2x2 blocks are omega*X and gamma*Z and every remaining
    diagonal 2x2 block is the bare Pauli.
    """
    require_spec(spec, "even_d", allow_degenerate)
    m = spec.d // 2
    u = kron(phase0_diag(m, spec.omega), PAULI_X)
    v = kron(phase0_diag(m, spec.gamma), PAULI_Z)
    mes = MaxEntSet(d=spec.d, unitaries=(identity(spec.d), u, v), spec=spec, label=f"even_d(d={spec.d})")
    return _checked(mes, "even_d")


def build_mod3_family(spec, allow_degenerate=False):
    """Three-state family in dimension d = 2 + 3r.

    u_1 = diag(omega*X, Q) and u_2 = diag(gamma*Z, Q^2) with Q the r-fold
    blow-up of the 3-cycle permutation.
    """
    require_spec(spec, "mod3", allow_degenerate)
    r = spec.r
    q = kron(cycle_permutation(3), identity(r))
    u = block_diag(spec.omega * PAULI_X, q)
    v = block_diag(spec.gamma * PAULI_Z, q @ q)
    mes = MaxEntSet(d=spec.d, unitaries=(identity(spec.d), u, v), spec=spec, label=f"mod3(d={spec.d})")
    return _checked(mes, "mod3")


def pauli_product(indices):
    """Tensor product of Pauli matrices selected by a tuple of labels."""
    out = PAULIS[indices[0]]
    for ix in indices[1:]:
        out = kron(out, PAULIS[ix])
    return out


# LATTICE[x, y] = sigma_x (x) sigma_y, the sixteen two-qubit lattice unitaries
LATTICE = np.array([[pauli_product((x, y)) for y in range(4)] for x in range(4)])
LATTICE.setflags(write=False)


def build_lattice_state(x, y):
    """4x4 unitary sigma_x (x) sigma_y indexing a two-qubit lattice state."""
    # checked first, since the table would wrap a negative label
    if not (0 <= x <= 3 and 0 <= y <= 3):
        raise SpecInvalid(f"lattice indices must lie in 0..3, got ({x},{y})")
    return LATTICE[x, y]


def lattice_triple_set(indices):
    """MaxEntSet of three two-qubit lattice states."""
    indices = tuple(tuple(t) for t in indices)
    spec = FamilySpec(kind="lattice_triple", d=4, lattice_indices=indices).validate()
    unitaries = tuple(build_lattice_state(*t) for t in indices)
    return MaxEntSet(d=4, unitaries=unitaries, spec=spec, label=f"lattice{indices}")


def build_k_family(spec, allow_degenerate=False):
    """k-state family in dimension d = m + k*r.

    State i carries alpha_i times the i-th base Pauli product on the top
    m x m block and the i-th power of the k-cycle blow-up on the bottom.
    """
    require_spec(spec, "k_state", allow_degenerate)
    q = kron(cycle_permutation(spec.k), identity(spec.r))
    unitaries = []
    qp = identity(spec.k * spec.r)
    for alpha, idx in zip(spec.alphas, spec.lattice_indices):
        unitaries.append(block_diag(alpha * pauli_product(idx), qp))
        qp = q @ qp
    mes = MaxEntSet(d=spec.d, unitaries=tuple(unitaries), spec=spec, label=f"k_state(k={spec.k},d={spec.d})")
    return _checked(mes, "k_state")


def build_family(spec, allow_degenerate=False):
    """Dispatch a FamilySpec to its constructor."""
    if spec.kind == "even_d":
        return build_even_family(spec, allow_degenerate)
    if spec.kind == "mod3":
        return build_mod3_family(spec, allow_degenerate)
    if spec.kind == "k_state":
        return build_k_family(spec, allow_degenerate)
    if spec.kind == "lattice_triple":
        return lattice_triple_set(spec.lattice_indices)
    raise SpecInvalid(f"no construction rule for kind {spec.kind!r}")


def builtin_triples_at(d):
    """All built-in three-state families available at dimension d."""
    out = []
    if d >= 4 and d % 2 == 0:
        out.append(build_even_family(even_spec(d)))
    if d >= 5 and (d - 2) % 3 == 0:
        out.append(build_mod3_family(mod3_spec(d)))
    if d >= 7 and (d - 4) % 3 == 0:
        out.append(build_k_family(k_spec(k=3, r=(d - 4) // 3, indices=((0, 0), (1, 1), (2, 2)))))
    return out


def check_orthogonal_mes(mes, tol=1e-9):
    """Residual report for unitarity, pairwise orthogonality, and entanglement.

    psi_i reshaped is U_i^T / sqrt(d), so its reduced states are
    (U_i^dag U_i)^T / d and U_i U_i^dag / d."""
    d, k = mes.d, mes.k
    u = np.asarray(mes.unitaries, dtype=complex)
    uh = np.conj(u.transpose(0, 2, 1))
    eye = identity(d)
    unitarity = np.linalg.norm(uh @ u - eye, axis=(1, 2))
    co_unitarity = np.linalg.norm(u @ uh - eye, axis=(1, 2))
    # gram[i, j] = tr(U_i^dag U_j)
    flat = u.reshape(k, -1)
    gram = np.abs(np.conj(flat) @ flat.T)
    pairwise = {(i, j): float(gram[i, j]) for i in range(k) for j in range(i + 1, k)}
    reduced = np.maximum(unitarity, co_unitarity) / d
    return {
        "unitarity_residuals": unitarity.tolist(),
        "pairwise_trace_residuals": pairwise,
        "reduced_state_residuals": reduced.tolist(),
        "pass": bool(
            unitarity.max() <= tol and max(pairwise.values(), default=0.0) <= tol and reduced.max() <= tol
        ),
    }
