"""Reference implementations that the tests compare the library against."""

import numpy as np

from eprkit import linalg as la


def apply_map_to_factors(kmap: la.KrausMap, state: np.ndarray, dims, targets) -> np.ndarray:
    """Apply ``kmap`` to contiguous tensor factors ``targets`` of ``state``, one
    Kraus operator at a time; the targeted factors become one factor of
    dimension ``kmap.out_dim`` in their position."""
    dims = list(dims)
    targets = sorted(targets)
    if targets != list(range(targets[0], targets[-1] + 1)):
        raise ValueError("target factors must be contiguous")
    d_target = int(np.prod([dims[i] for i in targets]))
    if d_target != kmap.in_dim:
        raise ValueError(f"target factors have dim {d_target}, map expects {kmap.in_dim}")
    d_left = int(np.prod(dims[: targets[0]]))
    d_right = int(np.prod(dims[targets[-1] + 1 :]))
    out = 0
    for k in kmap.kraus_ops:
        full = la.tensor(np.eye(d_left), k, np.eye(d_right))
        out = out + full @ state @ full.conj().T
    return out
