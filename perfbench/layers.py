"""One pass through the layers of `fermiperm reduce`, one public call at a time.

``layer_pass`` calls the public function of each module of ``fermiperm``
on one workload input, in the order ``encode_and_reduce`` and ``cmd_reduce``
use them, and wraps every call in ``measure(name)``.  Two probes fit that
slot: ``Spans`` keeps a wall-clock span per call in memory, and
``PeakMemory`` records the tracemalloc peak of chosen calls, each on its own.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

DECOMPOSE_TOL = 1e-9

# Layer calls that encode_and_reduce makes internally.
INSIDE_ENCODE_AND_REDUCE = (
    "encodings.encode",
    "permutations.classify",
    "permutations.conjugate",
    "minimal.redundancy",
    "reduction.project",
)
# Calls that make up one `reduce` today; their spans are what covers reduce_s.
PIPELINE = (
    "cli.parse",
    "perm_build",
    *INSIDE_ENCODE_AND_REDUCE,
    "reduction.oracle",
    "reduction.verify",
    "cli.emit",
)


# The call behind the "perm_build" span, by workload.parity.
PERM_BUILDERS = {
    False: "minimal.minimal_permutation_index_embed",
    True: "permutations.permutation_from_circuit(gl_to_cnot_circuit(parity))",
}


class Spans:
    """A span (id, name, start, end, parent) per measured call."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.parent: int | None = None

    @contextmanager
    def measure(self, name: str):
        start = time.perf_counter()
        yield
        end = time.perf_counter()
        self.records.append(
            {"id": len(self.records), "name": name, "start": start, "end": end,
             "parent": self.parent}
        )

    @contextmanager
    def operation(self, name: str):
        """Span of one workload operation; the spans inside it are its children."""
        op_id = len(self.records)
        self.records.append({"id": op_id, "name": name, "start": time.perf_counter(),
                             "end": None, "parent": None})
        self.parent = op_id
        try:
            yield
        finally:
            self.parent = None
            self.records[op_id]["end"] = time.perf_counter()

    def durations(self) -> list[dict[str, float]]:
        """Per operation, seconds spent in each named child span."""
        ops: dict[int, dict[str, float]] = {}
        for r in self.records:
            if r["parent"] is None:
                ops[r["id"]] = {}
        for r in self.records:
            if r["parent"] is not None:
                ops[r["parent"]][r["name"]] = r["end"] - r["start"]
        return list(ops.values())


class PeakMemory:
    """tracemalloc peak of each named call, in bytes: the most the call had
    allocated at once on top of what was live before it.  tracemalloc runs
    only inside the named calls, so the rest of the pass keeps full speed."""

    def __init__(self, names) -> None:
        self.names = frozenset(names)
        self.peaks: dict[str, int] = {}

    @contextmanager
    def measure(self, name: str):
        if name not in self.names:
            yield
            return
        tracemalloc.start()
        try:
            yield
            self.peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@dataclass
class LayerPass:
    """Counts from one pass, and every way its outputs disagreed."""

    terms_in: int
    encoded_terms: int
    conjugated_terms: int
    reduced_terms: int
    n_qubits: int
    fixed_qubits: int
    sector_dim: int
    affine: bool
    problems: list[str] = field(default_factory=list)


def layer_pass(fp, w, text: str, measure) -> LayerPass:
    """Run the reduce pipeline layer by layer; ``fp`` holds the fermiperm
    modules, ``w`` the workload and ``text`` its Hamiltonian file."""
    enc, minimal, perms, red, pauli = (
        fp.encodings, fp.minimal, fp.permutations, fp.reduction, fp.pauli
    )
    n = w.n_modes
    spec = minimal.SectorSpec(n, w.n_fermions)
    with measure("cli.parse"):
        h = enc.parse_hamiltonian(text, n_modes=n, hermitize=True)
    # Only the builder the workload's selector makes the CLI use.
    with measure("perm_build"):
        if w.parity:
            p = perms.permutation_from_circuit(
                enc.gl_to_cnot_circuit(enc.LinearEncodingF2.parity(n))
            )
        else:
            p = minimal.minimal_permutation_index_embed(spec)
    with measure("encodings.encode"):
        encoded = enc.encode_fermion_operator(h, enc.jw_majoranas(n))
    with measure("permutations.classify"):
        affine = perms.classify_affine(p)
    with measure("permutations.conjugate"):
        if affine is None:
            conjugated = perms.conjugate_pauli_dense(p, encoded)
        else:
            items = []
            for (x, z), coeff in encoded.items():
                q = perms.conjugate_pauli_affine(affine, pauli.PauliString(n, x, z))
                items.append(((q.x_bits, q.z_bits), coeff * q.coefficient))
            conjugated = pauli.PauliSum(n, items)
    with measure("minimal.redundancy"):
        report = minimal.redundant_qubits(p, spec)
    with measure("reduction.project"):
        reduced = conjugated
        for qubit, value in sorted(report.fixed, reverse=True):
            reduced = red.project_fixed_qubit(reduced, qubit, value)
    with measure("reduction.encode_and_reduce"):
        rh = red.encode_and_reduce(h, p, spec)
    with measure("reduction.oracle"):
        oracle = red.sector_oracle(h, spec)
    with measure("reduction.verify"):
        check = red.verify_reduction(rh, oracle)
    with measure("pauli.to_dense"):
        dense = reduced.to_dense()
    with measure("pauli.decompose"):
        back = pauli.pauli_decompose(dense)
    del dense
    with measure("cli.emit"):
        json.dumps(reduced.to_json_dict(), indent=2)

    result = LayerPass(
        terms_in=len(h.terms),
        encoded_terms=len(encoded),
        conjugated_terms=len(conjugated),
        reduced_terms=len(reduced),
        n_qubits=reduced.n_qubits,
        fixed_qubits=len(report.fixed),
        sector_dim=spec.dimension,
        affine=affine is not None,
    )
    if reduced != rh.pauli_sum:
        result.problems.append("layer calls disagree with encode_and_reduce")
    if not check.passed:
        result.problems.append(f"verify failed: deviation {check.max_deviation:g}")
    if reduced.n_qubits != w.out_qubits:
        result.problems.append(f"register width {reduced.n_qubits} != {w.out_qubits}")
    if not round_trips(reduced, back):
        result.problems.append("pauli_decompose(to_dense) does not reproduce the sum")
    return result


def round_trips(original, decomposed) -> bool:
    """Term by term: same register and every coefficient within DECOMPOSE_TOL."""
    if original.n_qubits != decomposed.n_qubits:
        return False
    a, b = dict(original.items()), dict(decomposed.items())
    return all(abs(a.get(k, 0) - b.get(k, 0)) <= DECOMPOSE_TOL for k in a.keys() | b.keys())
