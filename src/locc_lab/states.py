"""Families of orthogonal maximally entangled states.

Each family kind has a frozen spec type holding only what its builder
reads, checked when it is made: EvenSpec, Mod3Spec, KSpec and
LatticeTripleSpec. build_family dispatches on the spec's type.

Each state is represented by the unitary u acting on Bob's side of the
standard maximally entangled state, |psi> = (I (x) u)|Phi>, so MaxEntSet
holds a set as one read-only complex (k, d, d) array, copied and checked
once when it is made; families have u_0 = I. Index flattening is row-major:
|a>(x)|b> -> a*dB + b, so MaxEntSet.states(), the one formula for the state
vectors, reads row i as the flattened u_i^T / sqrt(d). Lattice states are
read-only views of the constant table LATTICE, built once at import.
"""

import functools
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, DuplicateStates, SpecInvalid
from .numerics import identity, kron

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


def _phase(value, what, prefix=""):
    """value as a complex128; SpecInvalid naming `what` unless it is finite with unit modulus."""
    # a NaN modulus would pass the unit-modulus test, so it is refused first
    if not np.isfinite(value) or abs(abs(value) - 1.0) > 1e-12:
        raise SpecInvalid(f"{what} must be finite with unit modulus, got {prefix}{value}")
    return np.complex128(value)


def _distances(**expressions):
    return {name: float(abs(v)) for name, v in expressions.items()}


def _json(value):
    """A spec field as JSON: a tuple as a list, a phase as [re, im]."""
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return [float(value.real), float(value.imag)] if isinstance(value, np.complexfloating) else int(value)


class FamilySpec:
    """Base of the per-kind specs. A spec's fields are what its family reads,
    checked when it is made; kind names the family in reports."""

    kind = None
    k = 3  # the state count; KSpec derives its own

    def genericity(self):
        """Each named phase expression's distance from its degeneracy locus."""
        return {}

    @property
    def is_generic(self):
        return all(v > GENERICITY_MARGIN for v in self.genericity().values())

    def to_json(self):
        """kind and the spec's fields; derived values are not written."""
        return {"kind": self.kind, **{f.name: _json(getattr(self, f.name)) for f in fields(self)}}


@dataclass(frozen=True)
class _PhaseSpec(FamilySpec):
    """Three states in d = _first + j*_step, j >= 0, with unit phases omega
    and gamma; None stands for DEFAULT_OMEGA or DEFAULT_GAMMA."""

    d: int
    omega: complex = None
    gamma: complex = None

    def __post_init__(self):
        for name, default in (("omega", DEFAULT_OMEGA), ("gamma", DEFAULT_GAMMA)):
            value = getattr(self, name)
            object.__setattr__(self, name, _phase(default if value is None else value, name, f"{name}="))
        if self.d < self._first or (self.d - self._first) % self._step:
            raise SpecInvalid(f"{self.kind} family needs {self._rule}, got d={self.d}")


@dataclass(frozen=True)
class EvenSpec(_PhaseSpec):
    """The even-d family."""

    kind, _first, _step, _rule = "even_d", 4, 2, "even d >= 4"

    def genericity(self):
        w, g = self.omega, self.gamma
        return _distances(omega_nonreal=w.imag, gamma_nonreal=g.imag,
                          omega_conj_gamma_nonreal=(np.conj(w) * g).imag)


@dataclass(frozen=True)
class Mod3Spec(_PhaseSpec):
    """The d = 2 + 3r family."""

    kind, _first, _step, _rule = "mod3", 5, 3, "d = 2 + 3r, r >= 1"
    r = property(lambda self: (self.d - 2) // 3)

    def genericity(self):
        g, w2 = self.gamma, self.omega**2
        return _distances(gamma_avoids_plus_i_omega2=g - 1j * w2, gamma_avoids_minus_i_omega2=g + 1j * w2)


@dataclass(frozen=True)
class KSpec(FamilySpec):
    """The k-state family in d = m + k*r, one state and one unit alpha per label
    tuple; labels are distinct, of one length n, each in 0..3, so m = 2^n."""

    lattice_indices: tuple
    r: int
    alphas: tuple
    kind = "k_state"
    k = property(lambda self: len(self.lattice_indices))
    d = property(lambda self: 2 ** len(self.lattice_indices[0]) + self.k * self.r)

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(_phase(a, "every alpha") for a in self.alphas))
        labels = tuple(map(tuple, self.lattice_indices))
        object.__setattr__(self, "lattice_indices", labels)
        if self.k < 1:
            raise SpecInvalid(f"k_state family needs k >= 1, got k={self.k}")
        if self.r < 1:
            raise SpecInvalid(f"k_state family needs r >= 1, got r={self.r}")
        if len({len(t) for t in labels}) != 1:
            raise SpecInvalid("lattice_indices tuples must all have the same length")
        if not all(x in (0, 1, 2, 3) for t in labels for x in t):
            raise SpecInvalid("lattice indices must lie in 0..3")
        if len(set(labels)) != self.k:
            raise DuplicateStates(f"base lattice states must be distinct, got {labels}")
        if len(self.alphas) != self.k:
            raise SpecInvalid("need one alpha per state")

    def genericity(self):
        a = self.alphas
        chain = (a[0] * np.conj(a[j]) * a[1] * np.conj(a[j + 1]) for j in range(1, self.k - 1))
        return _distances(**{f"phase_chain_{j}_nondegenerate": c**4 - 1.0 for j, c in enumerate(chain, 1)})


@dataclass(frozen=True)
class LatticeTripleSpec(FamilySpec):
    """Three distinct two-qubit lattice states in d = 4, one (x, y) label pair each, in 0..3."""

    lattice_indices: tuple
    kind, d = "lattice_triple", 4

    def __post_init__(self):
        pairs = tuple(map(tuple, self.lattice_indices))
        object.__setattr__(self, "lattice_indices", pairs)
        if len(pairs) != 3 or any(len(t) != 2 for t in pairs):
            raise SpecInvalid("lattice_triple family needs d=4 and three index pairs")
        if not all(x in (0, 1, 2, 3) for t in pairs for x in t):
            raise SpecInvalid("lattice indices must lie in 0..3")
        if len(set(pairs)) != 3:
            raise DuplicateStates(f"need three distinct index pairs, got {pairs}")


even_spec, mod3_spec = EvenSpec, Mod3Spec


def k_spec(k=4, r=1, indices=None, alphas=None):
    """The KSpec on k labels, by default the first k of DEFAULT_BASE_INDICES."""
    if k < 1:
        raise SpecInvalid(f"k_state family needs k >= 1, got k={k}")
    indices = DEFAULT_BASE_INDICES[:k] if indices is None else indices
    if len(indices) != k:
        raise SpecInvalid("k must equal the number of lattice_indices")
    return KSpec(indices, r, default_alphas(k) if alphas is None else alphas)


@dataclass(frozen=True)
class MaxEntSet:
    """Orthogonal maximally entangled states from any sequence of d x d
    unitaries, held as one read-only complex (k, d, d) array, copied and
    checked once when the set is made: d >= 1, at least one state, each
    unitary d x d with finite entries (unitarity and orthogonality are
    check_orthogonal_mes's)."""

    d: int
    unitaries: np.ndarray
    spec: FamilySpec = None
    label: str = ""

    def __post_init__(self):
        if self.d < 1:
            raise DimensionMismatch(f"a state set needs d >= 1, got d={self.d}")
        if len(self.unitaries) == 0:
            raise DimensionMismatch("a state set needs at least one state")
        shape = (self.d, self.d)
        # read before stacking, so that ragged input is refused by its index
        for i, u in enumerate(self.unitaries):
            if np.shape(u) != shape:
                raise DimensionMismatch(f"unitary {i} has shape {np.shape(u)}, not {shape}")
        stack = np.array(self.unitaries, dtype=complex)
        if not np.isfinite(stack).all():
            raise ValueError("matrix contains NaN/Inf entries")
        stack.setflags(write=False)
        object.__setattr__(self, "unitaries", stack)

    @property
    def k(self):
        return len(self.unitaries)

    def states(self):
        """Row i is the state vector (I (x) U_i)|Phi>, the flattened U_i^T / sqrt(d)."""
        return np.multiply(self.unitaries.transpose(0, 2, 1), 1.0 / np.sqrt(self.d), order="C").reshape(self.k, -1)

    def state(self, i):
        """Row i of states()."""
        return self.states()[i]


def require_spec(spec, spec_type, allow_degenerate=False, refusal="pass allow_degenerate to force"):
    """spec, refused unless it is a spec_type and, unless allow_degenerate,
    its phases lie off every degeneracy locus."""
    if not isinstance(spec, spec_type):
        raise SpecInvalid(f"expected a {spec_type.kind!r} spec, got {spec.kind!r}")
    if not (allow_degenerate or spec.is_generic):
        name, distance = min(spec.genericity().items(), key=lambda item: item[1])
        raise SpecInvalid(
            f"degenerate phases ({name}); {refusal}: its distance from the degeneracy locus, "
            f"{distance:.3e}, is within the margin {GENERICITY_MARGIN:g}"
        )
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
    require_spec(spec, EvenSpec, allow_degenerate)
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
    require_spec(spec, Mod3Spec, allow_degenerate)
    r = spec.r
    q = kron(cycle_permutation(3), identity(r))
    u = block_diag(spec.omega * PAULI_X, q)
    v = block_diag(spec.gamma * PAULI_Z, q @ q)
    mes = MaxEntSet(d=spec.d, unitaries=(identity(spec.d), u, v), spec=spec, label=f"mod3(d={spec.d})")
    return _checked(mes, "mod3")


def pauli_product(indices):
    """Tensor product of Pauli matrices selected by a tuple of labels."""
    return functools.reduce(kron, (PAULIS[ix] for ix in indices))


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
    spec = LatticeTripleSpec(indices)
    unitaries = tuple(build_lattice_state(*t) for t in spec.lattice_indices)
    return MaxEntSet(d=4, unitaries=unitaries, spec=spec, label=f"lattice{spec.lattice_indices}")


def build_k_family(spec, allow_degenerate=False):
    """k-state family in dimension d = m + k*r.

    State i carries alpha_i times the i-th base Pauli product on the top
    m x m block and the i-th power of the k-cycle blow-up on the bottom:
    the kr x kr identity with its rows rolled down by i*r.
    """
    require_spec(spec, KSpec, allow_degenerate)
    k, r = spec.k, spec.r
    unitaries = tuple(block_diag(alpha * pauli_product(idx), identity(k * r)[np.arange(-i * r, (k - i) * r)])
                      for i, (alpha, idx) in enumerate(zip(spec.alphas, spec.lattice_indices)))
    mes = MaxEntSet(d=spec.d, unitaries=unitaries, spec=spec, label=f"k_state(k={spec.k},d={spec.d})")
    return _checked(mes, "k_state")


def build_family(spec, allow_degenerate=False):
    """The set a spec selects, built by the builder of its type."""
    if isinstance(spec, LatticeTripleSpec):
        return lattice_triple_set(spec.lattice_indices)
    builder = {EvenSpec: build_even_family, Mod3Spec: build_mod3_family, KSpec: build_k_family}.get(type(spec))
    if builder is None:
        raise SpecInvalid(f"no construction rule for {type(spec).__name__}")
    return builder(spec, allow_degenerate)


def check_orthogonal_mes(mes, tol=1e-9):
    """Residual report for unitarity, pairwise orthogonality, and entanglement.

    psi_i reshaped is U_i^T / sqrt(d), so its reduced states are
    (U_i^dag U_i)^T / d and U_i U_i^dag / d. For square U both residuals
    ||U^dag U - I|| and ||U U^dag - I|| equal sqrt(sum (s^2 - 1)^2) over
    U's singular values s, so one product serves both."""
    d, k, u = mes.d, mes.k, mes.unitaries
    unitarity = np.linalg.norm(np.conj(u.transpose(0, 2, 1)) @ u - identity(d), axis=(1, 2))
    # gram[i, j] = tr(U_i^dag U_j)
    flat = u.reshape(k, -1)
    gram = np.abs(np.conj(flat) @ flat.T)
    pairwise = {(i, j): float(gram[i, j]) for i in range(k) for j in range(i + 1, k)}
    reduced = unitarity / d
    return {
        "unitarity_residuals": unitarity.tolist(),
        "pairwise_trace_residuals": pairwise,
        "reduced_state_residuals": reduced.tolist(),
        "pass": bool(
            unitarity.max() <= tol and max(pairwise.values(), default=0.0) <= tol and reduced.max() <= tol
        ),
    }
