"""The persistent fragment-response store, keyed by rigid-motion class.

A 100M-atom water box is millions of *nearly identical* fragments: the
same water geometry repeated under rotations and translations, and a
production QF run is hours of independent piece calculations whose
finished work must survive a lost process (the paper's master
re-queues unfinished fragments — finished ones live in its result
store). This module is that result store: it keeps one response per
rigid class and serves it to every copy, in this run and in every
later one.

Canonicalization
----------------
:func:`canonicalize` maps a geometry to a rigid-motion-invariant
*canonical frame*:

1. translate to the center of mass;
2. enumerate candidate right-handed frames built **from the atoms
   themselves** (first axis through an anchor atom of the
   lexicographically smallest element symbol, second axis through the
   off-axis component of every other atom) — never from
   ``np.linalg.eigh`` of the inertia tensor, whose eigenvector signs
   and degenerate-subspace bases are platform lottery tickets;
3. in each candidate frame, quantize the coordinates to a fixed grid
   (:data:`CANON_DECIMALS` decimals, bohr) and sort the atoms by
   (symbol, x, y, z);
4. keep the lexicographically smallest encoding.

Because every candidate frame co-rotates with the molecule, the chosen
encoding — and hence the content key — is invariant under rotations,
translations, and atom-index permutations, and *deterministic*: ties
between symmetry-equivalent frames produce identical encodings, so any
winner yields the same key. Only proper rotations are enumerated, so
mirror images (enantiomers) keep distinct keys — an improper rotation
cannot be applied to the stored tensors by
:func:`~repro.pipeline.rigid.rotate_response`.

Degenerate geometries (symmetric tops, accidentally degenerate inertia
tensors) need no special eigenbasis handling, since no eigenbasis is
ever computed. Exactly-linear fragments fall back to an
axis-projection frame (coordinates off the molecular axis are
sub-tolerance by construction and stored as zero). A linear geometry
cannot pin its azimuthal orientation, so the rotation between two
linear copies is known only up to a turn about the molecular axis;
the store therefore never serves a *rotated* hit for a linear
fragment (see below).

Store
-----
:class:`CanonicalStore` writes one ``canon_<key>.npz`` per rigid class
(atomic tmp+rename writes, safe for concurrent writers; stray
``*.tmp.npz`` debris is ignored). An entry holds the response in the
**lab frame** of the geometry it was computed for, that geometry's
coordinates, its exact :func:`task_key`, and its canonical frame
(rotation, atom permutation, canonical coordinates).
Storing is idempotent: a class that already has an entry keeps it.

A lookup first *validates* the entry: the stored canonical coordinates
must match the target's to :data:`VALIDATE_RMSD_BOHR`, else the entry
is rejected — a silently mis-rotated tensor would still produce a
plausible spectrum, so the invariance test harness
(``tests/pipeline/test_canonical_properties.py``) and this runtime
check are both load-bearing. Then:

1. if the stored ``task_key`` equals the target's, the arrays are
   returned verbatim (an exact hit: bit-identical kill/resume);
2. otherwise the lab-frame entry is permuted and rotated into the
   target's frame (a rotated hit) — unless the fragment is linear,
   which is rejected instead.

Every reject is counted by reason in :meth:`CanonicalStore.stats`.
Bump :data:`KEY_VERSION` whenever the entry layout changes, so a
store written in an older format is never opened. See
``docs/caching.md``.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from collections import Counter
from pathlib import Path

import numpy as np

from repro.dfpt.hessian import FragmentResponse
from repro.geometry.atoms import Geometry
from repro.obs.counters import counters
from repro.pipeline.rigid import rotate_response

__all__ = [
    "CANON_DECIMALS",
    "CanonicalFrame",
    "CanonicalStore",
    "KEY_VERSION",
    "VALIDATE_RMSD_BOHR",
    "canonical_key",
    "canonicalize",
    "config_encoding",
    "permute_response",
    "task_key",
]

#: version tag hashed into every key; bumped with the entry layout
KEY_VERSION = "canon-v2"

#: quantization grid of the canonical coordinates: two geometries whose
#: canonical coordinates agree to this many decimals (bohr) share a key
CANON_DECIMALS = 6

#: an atom closer than this (bohr) to the center of mass / frame axis
#: cannot anchor a frame axis (its direction would be numerical noise)
_AXIS_TOL = 1.0e-6

#: a rigid hit is trusted only if the stored canonical coordinates
#: match the target's within this RMSD (bohr); ties between
#: symmetry-equivalent frames differ by at most the quantization grid
VALIDATE_RMSD_BOHR = 1.0e-4


# -- exact content keys ----------------------------------------------------


def config_encoding(basis_name: str, delta: float, *,
                    compute_raman: bool = True, eri_mode: str = "auto",
                    schwarz_cutoff: float = 1.0e-12) -> bytes:
    """Canonical bytes of every run setting that can change the numbers
    (sorted-key JSON); shared by :func:`task_key` and
    :func:`canonical_key`."""
    config = {
        "basis": basis_name,
        "delta": f"{delta:.3e}",
        "raman": bool(compute_raman),
        "eri": eri_mode,
        "schwarz": f"{schwarz_cutoff:.3e}",
    }
    return json.dumps(config, sort_keys=True).encode()


def task_key(geometry: Geometry, basis_name: str, delta: float,
             **config) -> str:
    """Content hash of one fragment task: geometry + full run config.

    Coordinates enter rounded to 1e-9 bohr, plus every knob that can
    change the numerical result (:func:`config_encoding`), so an entry
    with an equal key is bit-compatible with a fresh computation.
    Nothing positional (task index, attempt number, submission order)
    enters the hash, so it is invariant to fragment ordering too.
    """
    h = hashlib.sha256()
    h.update(",".join(geometry.symbols).encode())
    h.update(np.round(geometry.coords, 9).tobytes())
    h.update(f"|{geometry.charge}".encode())
    h.update(config_encoding(basis_name, delta, **config))
    return h.hexdigest()[:24]


# -- canonical frame construction ------------------------------------------


def _quantize(coords: np.ndarray, decimals: int) -> np.ndarray:
    # `+ 0.0` collapses IEEE -0.0 onto +0.0 so the byte encoding (and
    # tuple formatting) of a zero is unique
    return np.round(np.asarray(coords, dtype=float), decimals) + 0.0


def _axis_completion(e1: np.ndarray) -> np.ndarray:
    """Deterministic right-handed frame with first row ``e1``.

    Used only for exactly-linear fragments, where the rotation about
    the molecular axis is physically irrelevant (all atoms sit on it).
    """
    probe = np.zeros(3)
    probe[int(np.argmin(np.abs(e1)))] = 1.0
    e2 = probe - (probe @ e1) * e1
    e2 /= np.linalg.norm(e2)
    return np.vstack([e1, e2, np.cross(e1, e2)])


def _candidate_frames(centered: np.ndarray, symbols: list[str]
                      ) -> tuple[list[np.ndarray], bool]:
    """All atom-anchored proper frames; ``(frames, is_linear)``.

    The first axis runs through an anchor atom of the smallest element
    symbol present off-center (an exact, rotation/permutation-invariant
    class — no floating-point pruning that could flip between rigid
    copies); the second axis through each other atom's off-axis
    component. A fragment with no off-axis atom at all is linear.
    """
    n = len(symbols)
    radii = np.linalg.norm(centered, axis=1)
    anchors = [i for i in range(n) if radii[i] > _AXIS_TOL]
    if not anchors:
        # single atom (or all atoms on the COM, which valid geometries
        # exclude): the frame is arbitrary and the coordinates vanish
        return [np.eye(3)], True
    first_symbol = min(symbols[i] for i in anchors)
    frames: list[np.ndarray] = []
    axes: list[np.ndarray] = []
    for a in anchors:
        if symbols[a] != first_symbol:
            continue
        e1 = centered[a] / radii[a]
        axes.append(e1)
        for b in range(n):
            if b == a:
                continue
            off = centered[b] - (centered[b] @ e1) * e1
            norm = np.linalg.norm(off)
            if norm <= _AXIS_TOL:
                continue
            e2 = off / norm
            frames.append(np.vstack([e1, e2, np.cross(e1, e2)]))
    if frames:
        return frames, False
    return [_axis_completion(e1) for e1 in axes], True


class CanonicalFrame:
    """The canonical placement of one geometry.

    ``rotation`` maps lab-frame vectors into the canonical frame
    (``v_canon = rotation @ v_lab``); ``coords`` are the canonical
    coordinates in canonical atom order; ``perm[k]`` is the input atom
    occupying canonical slot ``k``.
    """

    __slots__ = ("key", "symbols", "coords", "rotation", "translation",
                 "perm", "linear")

    def __init__(self, key: str, symbols: tuple, coords: np.ndarray,
                 rotation: np.ndarray, translation: np.ndarray,
                 perm: np.ndarray, linear: bool):
        self.key = key
        self.symbols = symbols
        self.coords = coords
        self.rotation = rotation
        self.translation = translation
        self.perm = perm
        self.linear = linear

    def inverse_perm(self) -> np.ndarray:
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(len(self.perm))
        return inv


def canonicalize(geometry: Geometry,
                 decimals: int = CANON_DECIMALS) -> CanonicalFrame:
    """Rigid-motion-invariant canonical frame of ``geometry``."""
    coords = np.asarray(geometry.coords, dtype=float)
    masses = geometry.masses
    com = (masses[:, None] * coords).sum(axis=0) / masses.sum()
    centered = coords - com
    symbols = list(geometry.symbols)
    n = len(symbols)

    frames, linear = _candidate_frames(centered, symbols)
    best = None   # (encoding, perm, canon_coords, frame)
    for frame in frames:
        canon = centered @ frame.T
        if linear:
            # off-axis components are sub-tolerance by construction;
            # zero them so the arbitrary axis completion cannot leak
            # into the encoding or the stored coordinates
            canon[:, 1:] = 0.0
        q = _quantize(canon, decimals)
        order = sorted(
            range(n),
            key=lambda i: (symbols[i], q[i, 0], q[i, 1], q[i, 2], i),
        )
        encoding = tuple(
            (symbols[i], q[i, 0], q[i, 1], q[i, 2]) for i in order
        )
        if best is None or encoding < best[0]:
            best = (encoding, np.array(order, dtype=int), canon, frame)
    encoding, perm, canon, frame = best

    h = hashlib.sha256()
    h.update(f"{KEY_VERSION}|{decimals}|{geometry.charge}|".encode())
    h.update(",".join(symbols[i] for i in perm).encode())
    h.update(_quantize(canon[perm], decimals).tobytes())
    return CanonicalFrame(
        key=h.hexdigest()[:24],
        symbols=tuple(symbols[i] for i in perm),
        coords=canon[perm],
        rotation=frame,
        translation=com,
        perm=perm,
        linear=linear,
    )


def _class_key(frame: CanonicalFrame, basis_name: str, delta: float,
               **config) -> str:
    h = hashlib.sha256()
    h.update(frame.key.encode())
    h.update(config_encoding(basis_name, delta, **config))
    return h.hexdigest()[:24]


def canonical_key(geometry: Geometry, basis_name: str, delta: float, *,
                  decimals: int = CANON_DECIMALS, **config) -> str:
    """Content hash of (canonical geometry class, full run config).

    The rigid-motion analogue of :func:`task_key`, with the same config
    encoding: two fragments share a key iff they
    are the same geometry up to a proper rigid motion (within the
    quantization grid) *and* every config knob that can change the
    numbers matches.
    """
    return _class_key(canonicalize(geometry, decimals=decimals),
                      basis_name, delta, **config)


# -- response reindexing ---------------------------------------------------


def permute_response(response: FragmentResponse, perm,
                     geometry: Geometry | None = None) -> FragmentResponse:
    """Reindex a response: output atom ``j`` is input atom ``perm[j]``.

    All per-atom tensor blocks move together (Hessian rows *and*
    columns, derivative leading axes, gradient rows), so the physics is
    untouched — only the bookkeeping order changes.
    """
    perm = np.asarray(perm, dtype=int)
    src = response.geometry
    if perm.shape != (src.natoms,):
        raise ValueError(
            f"permutation length {perm.shape} does not match "
            f"{src.natoms} atoms"
        )
    idx3 = (3 * perm[:, None] + np.arange(3)).ravel()
    if geometry is None:
        geometry = Geometry(
            [src.symbols[i] for i in perm], src.coords[perm],
            charge=src.charge,
            labels=[src.labels[i] for i in perm] if src.labels else [],
        )

    def take(arr):
        return None if arr is None else arr[idx3]

    return FragmentResponse(
        geometry=geometry,
        energy=response.energy,
        hessian=response.hessian[np.ix_(idx3, idx3)],
        dalpha_dr=take(response.dalpha_dr),
        alpha=response.alpha,
        gradient=response.gradient[perm],
        meta=dict(response.meta),
    )


# -- the persistent global store -------------------------------------------


class CanonicalStore:
    """Persistent content-addressed store of fragment responses.

    One ``canon_<key>.npz`` per rigid class, kept in the lab frame of
    the geometry it was computed for; see the module docstring for the
    entry layout and the exact-first lookup. Writes are atomic and
    idempotent — concurrent runs may share one directory — and
    per-instance statistics are mirrored into the ``cache.canonical_*``
    counters of :mod:`repro.obs`.
    """

    def __init__(self, directory: str | Path,
                 decimals: int = CANON_DECIMALS):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.decimals = decimals
        self.hits = 0
        self.misses = 0
        self.rotations = 0
        self.writes = 0
        self.rejects = 0
        self.reject_reasons: Counter[str] = Counter()

    def key(self, geometry: Geometry, basis_name: str, delta: float,
            **config) -> str:
        return canonical_key(geometry, basis_name, delta,
                             decimals=self.decimals, **config)

    def _locate(self, geometry: Geometry, basis_name: str, delta: float,
                config: dict) -> tuple[CanonicalFrame, Path]:
        frame = canonicalize(geometry, decimals=self.decimals)
        key = _class_key(frame, basis_name, delta, **config)
        return frame, self.directory / f"canon_{key}.npz"

    def store(self, geometry: Geometry, response: FragmentResponse,
              basis_name: str, delta: float, **config) -> Path | None:
        """Persist ``response`` for ``geometry``'s rigid class; returns
        the written entry, or None when the class already has one."""
        frame, path = self._locate(geometry, basis_name, delta, config)
        if path.exists():
            return None
        payload = {
            "energy": np.array(response.energy),
            "hessian": response.hessian,
            "gradient": response.gradient,
        }
        for name in ("dalpha_dr", "alpha"):
            if getattr(response, name) is not None:
                payload[name] = getattr(response, name)
        payload.update(
            lab_coords=np.asarray(geometry.coords, dtype=float),
            task_key=np.array(task_key(geometry, basis_name, delta,
                                       **config)),
            canon_rotation=frame.rotation,
            canon_perm=frame.perm,
            canon_coords=frame.coords,
            canon_symbols=np.array(frame.symbols, dtype="U4"),
            canon_charge=np.array(geometry.charge),
        )
        self.writes += 1
        counters().inc("cache.canonical_writes")
        # the rename is atomic on POSIX: a reader (or a resumed run)
        # sees the complete entry or none; a crash mid-write leaves
        # only a ``*.tmp.npz`` stray, which every lookup ignores
        tmp = path.with_suffix(".tmp.npz")
        np.savez_compressed(tmp, **payload)
        tmp.replace(path)
        return path

    def load(self, geometry: Geometry, basis_name: str, delta: float,
             **config) -> FragmentResponse | None:
        """The stored response for ``geometry``, in its lab frame and
        atom order — or None on a miss or a rejected entry."""
        frame, path = self._locate(geometry, basis_name, delta, config)
        if not path.exists():
            return self._miss()
        try:
            with np.load(path, allow_pickle=False) as data:
                return self._restore(
                    data, geometry, frame,
                    task_key(geometry, basis_name, delta, **config),
                )
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            # a torn or foreign file can only appear if something wrote
            # past the atomic tmp+rename protocol; treat it as absent
            return self._reject("unreadable")

    def _restore(self, data, geometry: Geometry, frame: CanonicalFrame,
                 target_key: str) -> FragmentResponse | None:
        stored_symbols = tuple(str(s) for s in data["canon_symbols"])
        if stored_symbols != frame.symbols \
                or int(data["canon_charge"]) != geometry.charge:
            return self._reject("species")
        stored_coords = np.asarray(data["canon_coords"], dtype=float)
        rmsd = float(np.sqrt(np.mean(
            np.sum((stored_coords - frame.coords) ** 2, axis=1)
        )))
        if rmsd > VALIDATE_RMSD_BOHR:
            # the guard against the silent-wrong-answer failure mode: a
            # key collision or a quantization-edge geometry must become
            # a recompute, never a mis-rotated tensor
            return self._reject("frame")
        stored = FragmentResponse(
            geometry=geometry,
            energy=float(data["energy"]),
            hessian=data["hessian"],
            dalpha_dr=data.get("dalpha_dr"),
            alpha=data.get("alpha"),
            gradient=data["gradient"],
            meta={"cached": True},
        )
        if str(data["task_key"]) == target_key:
            self.hits += 1
            counters().inc("cache.canonical_hits")
            return stored
        if frame.linear:
            # the azimuth about the molecular axis is unknown, so the
            # rotation between the two copies is not determined
            return self._reject("linear")
        # stored lab frame -> canonical frame -> target lab frame:
        # target atom perm_t[k] is stored atom perm_s[k]
        perm = data["canon_perm"][frame.inverse_perm()]
        rotation = frame.rotation.T @ data["canon_rotation"]
        resp = rotate_response(
            permute_response(stored, perm, geometry=geometry),
            rotation, geometry,
        )
        self.hits += 1
        self.rotations += 1
        counters().inc("cache.canonical_hits")
        counters().inc("cache.canonical_rotations")
        return resp

    def _miss(self):
        self.misses += 1
        counters().inc("cache.canonical_misses")
        return None

    def _reject(self, why: str):
        self.rejects += 1
        self.reject_reasons[why] += 1
        counters().inc("cache.canonical_rejects")
        return self._miss()

    # -- task adapters (pipeline / executor integration) -------------------

    @staticmethod
    def _task_config(task) -> dict:
        return {"compute_raman": task.compute_raman,
                "eri_mode": task.eri_mode,
                "schwarz_cutoff": task.schwarz_cutoff}

    def load_task(self, task) -> FragmentResponse | None:
        return self.load(task.geometry, task.basis_name, task.delta,
                         **self._task_config(task))

    def store_task(self, task, response: FragmentResponse) -> Path | None:
        return self.store(task.geometry, response, task.basis_name,
                          task.delta, **self._task_config(task))

    # -- bookkeeping -------------------------------------------------------

    def stats(self) -> dict:
        """Per-instance reuse accounting (for manifests and benchmarks)."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rotations": self.rotations,
            "writes": self.writes,
            "rejects": self.rejects,
            "reject_reasons": dict(self.reject_reasons),
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def _complete(self) -> list[Path]:
        # exclude "canon_<key>.tmp.npz" debris from a killed writer
        return [p for p in self.directory.glob("canon_*.npz")
                if not p.name.endswith(".tmp.npz")]

    def keys(self) -> set[str]:
        return {p.stem[len("canon_"):] for p in self._complete()}

    def __len__(self) -> int:
        return len(self._complete())
