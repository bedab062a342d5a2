"""Hand-maintained reference correction tables used as certification fixtures.

Each table is text in CorrectionTable.to_text's row format: a 2n-bit
message (psi- 00, psi+ 01, phi- 10, phi+ 11, in measurement order), then
the correction's tokens. The rows are kept verbatim as transcribed,
including the two-qubit rows that the derivation oracle contradicts.
certify_table reports per-row verdicts instead of editing the fixture;
nothing in the engines ever reads corrections from here.

Tokens apply right-to-left, so "X@b1 Z@b1" means: apply Z to b1, then X.
"""
from __future__ import annotations

TABLES: dict[int, str] = {
    # Single-pair table: outcome on (x1, a1) -> correction on b1.
    1: """
00 I
01 Z@b1
10 X@b1
11 Z@b1 X@b1
""",
    # Two-qubit table: outcomes in measurement order ((x2, a2) first, then
    # (x1, a1)) -> correction on (b1, b2). Several rows disagree with the
    # composition of the single-pair rule; they are transcribed anyway and
    # adjudicated by certify_table against the derivation oracle.
    2: """
0000 I
0001 Z@b1
0010 X@b1
0011 X@b1 Z@b1
0100 Z@b2
0101 Z@b1 Z@b2
0110 Z@b2
0111 X@b1 Z@b1 Z@b2
1000 X@b1 X@b2
1001 Z@b1 X@b1 X@b2
1010 X@b2
1011 Z@b1 X@b2
1100 X@b1 Z@b2 X@b2
1101 Z@b1 X@b1 Z@b2 X@b2
1110 Z@b2 X@b2
1111 Z@b1 X@b2 Z@b2
""",
}
