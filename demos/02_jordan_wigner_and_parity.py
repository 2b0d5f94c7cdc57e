#!/usr/bin/env python3
"""The two textbook encodings: occupancy (Jordan-Wigner) and parity basis.

Both are invertible GF(2)-linear maps on occupancy strings; Jordan-Wigner
is the identity matrix and the parity basis the lower-triangular all-ones
matrix.  Their Majorana operators square to identity and pairwise
anticommute, which is all a fermion-to-qubit encoding has to guarantee.
"""

import numpy as np

from fermiperm import (
    FermionOperator,
    FockState,
    LinearEncodingF2,
    commutes,
    encode_fermion_operator,
    encode_state,
    jw_majorana,
    jw_majoranas,
    parity_majorana,
    parity_majoranas,
)

N = 5
state = FockState.from_string("10011")  # 3 fermions in modes 1, 4, 5

jw = LinearEncodingF2.jordan_wigner(N)
parity = LinearEncodingF2.parity(N)
print("occupancy string:   ", state.to_string())
print("Jordan-Wigner image:", encode_state(jw, state).to_string())
print("parity-basis image: ", encode_state(parity, state).to_string())
print("(each parity qubit stores the running XOR of occupancies)")

# --- Majorana operators ------------------------------------------------------

print("\nJordan-Wigner Majoranas, 4 modes:")
for j in range(1, 5):
    g = jw_majorana(j, False, 4)
    gp = jw_majorana(j, True, 4)
    print(f"  g{j} = {g.letters()}    g'{j} = {gp.letters()}")

print("parity-basis Majoranas, 4 modes:")
for j in range(1, 5):
    g = parity_majorana(j, False, 4)
    gp = parity_majorana(j, True, 4)
    print(f"  g{j} = {g.letters()}    g'{j} = {gp.letters()}")

flat = [op for pair in parity_majoranas(4) for op in pair]
bad = sum(commutes(a, b) for i, a in enumerate(flat) for b in flat[i + 1 :])
print("parity Majorana pairs that fail to anticommute:", bad)

# --- encoding a Hamiltonian ---------------------------------------------------

hopping = np.zeros((4, 4))
hopping[0, 1] = hopping[1, 0] = 1.0  # a+_1 a_2 + a+_2 a_1
number = FermionOperator.one_body(np.eye(4))  # sum_p a+_p a_p
h = FermionOperator.one_body(hopping) + number

encoded = encode_fermion_operator(h, jw_majoranas(4))
print("\nhopping + total number under Jordan-Wigner:")
for letters, coeff in encoded.items_sorted():
    print(f"  {coeff.real:+.2f} {letters}")
