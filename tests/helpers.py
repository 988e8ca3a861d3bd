"""Small test-side helpers for quantities the package does not export."""

import math
import sys

import numpy as np
import oracles

from xtalksim import model
from xtalksim.model import CrosstalkOnly, Idle, assemble_hamiltonian
from xtalksim.operators import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z

#: I, X, Y and Z: a 1x1 or 2x2 ``BlockStack`` holds its terms' real coefficients on these.
PAULIS = np.array([IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z])


def improvement_orders(reference_infidelity: float, infidelity: float) -> float:
    """log10 of the infidelity reduction relative to a reference scheme."""
    if reference_infidelity <= 0.0:
        return 0.0
    if infidelity <= 0.0:
        return math.inf
    return math.log10(reference_infidelity / infidelity)


def hermiticity_defect(m) -> float:
    """Largest entrywise deviation of ``m`` from its conjugate transpose."""
    m = np.asarray(m)
    return float(np.abs(m - m.conj().swapaxes(-1, -2)).max())


def coupling(params, topology, t):
    """The bare XY coupling in the operation frame: a crosstalk-only idle assembly."""
    return oracles.hamiltonian(assemble_hamiltonian(params, topology, CrosstalkOnly(), Idle(1.0)), t)


def count_calls(monkeypatch, owner, name, record=lambda *args: None):
    """Count calls of ``owner.name``, passing each call's arguments to ``record``."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_assemblies(monkeypatch):
    """Count ``assemble_hamiltonian`` calls through every ``xtalksim`` module that
    holds it, recording each call's scheme."""
    calls = []
    original = model.assemble_hamiltonian

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("xtalksim") and getattr(module, "assemble_hamiltonian", None) is original:
            monkeypatch.setattr(module, "assemble_hamiltonian", counting)
    return calls


def exponents(stack, weights):
    """The exponents X_n = -i h H_eff of a ``BlockStack``'s steps, ``(n, C, B, d,
    d)``, from a chunk's ``(n, C, K)`` Magnus weights, contracted by ``einsum``.
    The matrices -i M_k are rebuilt from their Pauli coefficients up to 2x2,
    and read back from their real form [[Re, -Im], [Im, Re]] above."""
    k, b, d = len(stack.matrices), len(stack.copies), stack.dim
    matrices = stack.matrices.reshape(k, b, -1)
    if d <= 2:
        matrices = -1j * np.einsum("kbp,pij->kbij", matrices, PAULIS[: d * d, :d, :d])
    else:
        real_form = matrices.reshape(k, b, 2 * d, 2 * d)
        matrices = real_form[..., :d, :d] + 1j * real_form[..., d:, :d]
    return np.einsum("nck,kbij->ncbij", weights, matrices)


def refined(edges: np.ndarray, factor: int) -> np.ndarray:
    """The step boundaries ``edges`` with every step split into ``factor`` equal ones."""
    n = len(edges) - 1
    return np.interp(np.arange(factor * n + 1) / factor, np.arange(n + 1), edges)
