"""Seeded Hamiltonian inputs for the `fermiperm reduce` benchmark.

Each workload is a fermionic Hamiltonian text file in the CLI's format
(``p q re im`` and ``p q r s re im`` lines, 1-based modes), reduced with
``--hermitize``.  The same (workload, seed) pair always yields the same
bytes; the program only ever sees the written file.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    n_modes: int
    n_fermions: int
    two_body: bool
    parity: bool  # --mapping parity (affine); otherwise --index-embed
    why: str

    @property
    def selector(self) -> list[str]:
        return ["--mapping", "parity"] if self.parity else ["--index-embed"]

    @property
    def out_qubits(self) -> int:
        """Register width the reduced operator must have."""
        if self.parity:
            return self.n_modes - 1
        from math import comb

        return (comb(self.n_modes, self.n_fermions) - 1).bit_length()

    def smoke(self) -> "Workload":
        """The same shape at N=4, K=2, for the benchmark's own test."""
        return Workload(self.name, 4, 2, self.two_body, self.parity, self.why)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "embed_onebody", 8, 4, False, False,
            "index-embed (non-affine): WHT conjugation on 2^8 states and a "
            "nearly dense 7-qubit output (11872 terms) dominate",
        ),
        Workload(
            "parity_twobody", 9, 4, True, True,
            "711-line two-body input: Jordan-Wigner encoding of ~1.4k fermion "
            "terms dominates; affine path, no WHT",
        ),
        Workload(
            "parity_wide", 12, 6, False, True,
            "largest sector (924 states) and register (11 qubits): sector "
            "oracle and dense 2^11 verify dominate",
        ),
    )
}


def hamiltonian_text(w: Workload, seed: int) -> str:
    """Upper-triangular one-body part plus, for two-body workloads, every
    a+_p a+_q a_r a_s with p<q, r<s and (p,q) <= (r,s); coefficients are
    uniform in [-1, 1] for both real and imaginary parts."""
    rng = random.Random(f"{w.name}/{w.n_modes}/{w.n_fermions}/{seed}")
    n = w.n_modes

    def coeff() -> str:
        return f"{rng.uniform(-1, 1):.6f} {rng.uniform(-1, 1):.6f}"

    lines = [f"# {w.name} N={n} K={w.n_fermions} seed={seed}"]
    for p in range(1, n + 1):
        for q in range(p, n + 1):
            lines.append(f"{p} {q} {coeff()}")
    if w.two_body:
        pairs = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
        for i, (p, q) in enumerate(pairs):
            for r, s in pairs[i:]:
                lines.append(f"{p} {q} {r} {s} {coeff()}")
    return "\n".join(lines) + "\n"


def write_input(w: Workload, seed: int, directory: Path) -> tuple[Path, str]:
    """Write the workload's Hamiltonian file; return its path and sha256."""
    data = hamiltonian_text(w, seed).encode()
    path = directory / f"{w.name}-N{w.n_modes}-seed{seed}.txt"
    path.write_bytes(data)
    return path, hashlib.sha256(data).hexdigest()
