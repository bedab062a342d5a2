"""Golden transcripts: the sha256 of every engine entry point's transcripts.

`run_session` is pinned at n = 1..5 over three seeds, and
`teleport_branches` at n = 1..4, for all four Bell resources. Any
change to the protocol walk that alters a single byte of a transcript
(an outcome, a correction, a fidelity or probability bit) fails here.

The `teleport_n` keys pin the same seeded runs taken straight through
the engine, without the two-party harness: each outcome is drawn with
`draw_branch`, and `_finish` corrects the branch with the rule's uncached
builder (`corrections_from_message.__wrapped__`), not the cached strings
sessions share. This is the walk the former `teleport.teleport_n` ran;
its digests equal their `run_session` twins, so neither the harness nor
the correction cache is seen to change a byte.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from teleportsim import teleport
from teleportsim.bell import BellState
from teleportsim.harness import run_session
from teleportsim.qstate import random_state
from teleportsim.teleport import _finish, _walk, protocol_labels, teleport_branches

SEEDS = (1, 2, 3)

# (entry point, resource, n) -> sha256 of the transcripts' JSON.
GOLDEN = {
    ("run_session", "psi-", 1):
        "64e804fce43b34c3308b1fffab6d5668adcea14e358d18d6ff256880aa179950",
    ("run_session", "psi-", 2):
        "227c8de611d23330986bec8388fecd30f5abd3dfef1e5311e27a50ab84d0e909",
    ("run_session", "psi-", 3):
        "0ad9c137efe8a2f7f9fbc457a12fa487ad12dda3e4f706141340af2eba052bac",
    ("run_session", "psi-", 4):
        "6120129b3ec245046e03f5d8b0b92d6267ebb11ac7b6c01d8696ba499a301c9e",
    ("run_session", "psi-", 5):
        "67313369e60334c06af8394c94c4164051a7627c1a2a9f99c4a3e73336cd9f5e",
    ("run_session", "psi+", 1):
        "4bb65bf40a77fda27fb6cd3701aaf4cf148407de0aae73e8318518297064c44a",
    ("run_session", "psi+", 2):
        "4252907512c5404a688dc1ad26eed0297f196dd029de1ac87da7a0ce78d90d2d",
    ("run_session", "psi+", 3):
        "65c245015b9db47c321f62502e8eb95ec290d4f6677c493aaa0b71bd26ead96a",
    ("run_session", "psi+", 4):
        "d03caa1388c51c8b160b1bf5a68c27fa961b8527312e22cb465ff1e34c473c21",
    ("run_session", "psi+", 5):
        "298a14fa3d70c12312fa684a3450a872946019e3ef3b652f0fc9ef9d29fa9e8f",
    ("run_session", "phi-", 1):
        "9f31e8a55888f7eee089cc1fabb8bb6edf704d775c89c27e98792ba0c0445ad6",
    ("run_session", "phi-", 2):
        "8f107403e535dea308883f17b1a28d8ac38c89beae9a914faec4ba4377c6e99d",
    ("run_session", "phi-", 3):
        "3a07c9d550b6e7f4feafc496018df66907c389c0436233b8f584894f0847e79a",
    ("run_session", "phi-", 4):
        "3e140419d8ce98180d898a1634474c5e24be2de76b0408d161b8eebec9d71706",
    ("run_session", "phi-", 5):
        "1d500072e358adc5d51408fa9fe1a0ff9f94b82122e04498d0e04e1f26e4095e",
    ("run_session", "phi+", 1):
        "d26a5bf4347c0644bdfa599e5a3bb2263bb93003230b94d0b7ef0a3e679bda52",
    ("run_session", "phi+", 2):
        "c79796daae3b344249f0df58833210b6923ca0f6a91b97876b4b6cc55e341737",
    ("run_session", "phi+", 3):
        "0449253717dae50831df927c6c0aec5b8c4a544347b53c24962cf63bd16ebbbf",
    ("run_session", "phi+", 4):
        "796976e5a3f2a5adeb6839472cbdd6bbbd43b1822a0a6b0eeaa97fbeec4a0487",
    ("run_session", "phi+", 5):
        "3f84d86b252fd7d76ebb75b50e2be20fe414cf236afc46c31d20177af69a4e39",
    ("teleport_n", "psi-", 1):
        "64e804fce43b34c3308b1fffab6d5668adcea14e358d18d6ff256880aa179950",
    ("teleport_n", "psi-", 2):
        "227c8de611d23330986bec8388fecd30f5abd3dfef1e5311e27a50ab84d0e909",
    ("teleport_n", "psi-", 3):
        "0ad9c137efe8a2f7f9fbc457a12fa487ad12dda3e4f706141340af2eba052bac",
    ("teleport_n", "psi-", 4):
        "6120129b3ec245046e03f5d8b0b92d6267ebb11ac7b6c01d8696ba499a301c9e",
    ("teleport_n", "psi-", 5):
        "67313369e60334c06af8394c94c4164051a7627c1a2a9f99c4a3e73336cd9f5e",
    ("teleport_n", "psi+", 1):
        "4bb65bf40a77fda27fb6cd3701aaf4cf148407de0aae73e8318518297064c44a",
    ("teleport_n", "psi+", 2):
        "4252907512c5404a688dc1ad26eed0297f196dd029de1ac87da7a0ce78d90d2d",
    ("teleport_n", "psi+", 3):
        "65c245015b9db47c321f62502e8eb95ec290d4f6677c493aaa0b71bd26ead96a",
    ("teleport_n", "psi+", 4):
        "d03caa1388c51c8b160b1bf5a68c27fa961b8527312e22cb465ff1e34c473c21",
    ("teleport_n", "psi+", 5):
        "298a14fa3d70c12312fa684a3450a872946019e3ef3b652f0fc9ef9d29fa9e8f",
    ("teleport_n", "phi-", 1):
        "9f31e8a55888f7eee089cc1fabb8bb6edf704d775c89c27e98792ba0c0445ad6",
    ("teleport_n", "phi-", 2):
        "8f107403e535dea308883f17b1a28d8ac38c89beae9a914faec4ba4377c6e99d",
    ("teleport_n", "phi-", 3):
        "3a07c9d550b6e7f4feafc496018df66907c389c0436233b8f584894f0847e79a",
    ("teleport_n", "phi-", 4):
        "3e140419d8ce98180d898a1634474c5e24be2de76b0408d161b8eebec9d71706",
    ("teleport_n", "phi-", 5):
        "1d500072e358adc5d51408fa9fe1a0ff9f94b82122e04498d0e04e1f26e4095e",
    ("teleport_n", "phi+", 1):
        "d26a5bf4347c0644bdfa599e5a3bb2263bb93003230b94d0b7ef0a3e679bda52",
    ("teleport_n", "phi+", 2):
        "c79796daae3b344249f0df58833210b6923ca0f6a91b97876b4b6cc55e341737",
    ("teleport_n", "phi+", 3):
        "0449253717dae50831df927c6c0aec5b8c4a544347b53c24962cf63bd16ebbbf",
    ("teleport_n", "phi+", 4):
        "796976e5a3f2a5adeb6839472cbdd6bbbd43b1822a0a6b0eeaa97fbeec4a0487",
    ("teleport_n", "phi+", 5):
        "3f84d86b252fd7d76ebb75b50e2be20fe414cf236afc46c31d20177af69a4e39",
    ("teleport_branches", "psi-", 1):
        "68b1cd40acee07e67810ba7bf2ecf5235711d48de08139c168e90e3f50eac0e3",
    ("teleport_branches", "psi-", 2):
        "3ed9e3115cf3ac09fd80f7ba5af94e290e2662aeb74d6b4f2e64122ddc7f741e",
    ("teleport_branches", "psi-", 3):
        "3f7a5ab7c8ec30df656b58700072f1c984ffaf20713a0fe791edaa26224df8e4",
    ("teleport_branches", "psi-", 4):
        "5d5338f320dd8fbedd34370b7d772bc01acd3472595613dccd9e1337a0a51d97",
    ("teleport_branches", "psi+", 1):
        "84d79d0d51b5f9f846924eb36663f94194144bd989f2acdcf96ca66ee8c9d78f",
    ("teleport_branches", "psi+", 2):
        "6460549e60c2733028b0db4f9e09f7457f32b4fcd9fa183e2bb69a98eb77aa97",
    ("teleport_branches", "psi+", 3):
        "b303bf698bedababe3fdf3dccaf3351d9f19175882578c8a258b9f124eac132e",
    ("teleport_branches", "psi+", 4):
        "9051d7de2d476b5d1666282341c0013448266099c903035049c23d00eaaeaa1d",
    ("teleport_branches", "phi-", 1):
        "6fae71a361bdd551448621e2822c33e957693c00736efe6147a14b73bd544415",
    ("teleport_branches", "phi-", 2):
        "1b569cdea104e4d03a5be3d78958f0283eb26d70863af342e174dc385709ebd2",
    ("teleport_branches", "phi-", 3):
        "e54d007fcf0c33b1df6e14e740a1f0908e0eea4f04bee8459f202362111ff5a8",
    ("teleport_branches", "phi-", 4):
        "d4266c7eca2ae7be1457ef136922ac3bbe67f0f054e750e48f83f052a7ae6d17",
    ("teleport_branches", "phi+", 1):
        "e467edff7e44820a701cee61bedb71850a7c771f140b15be44b53e799ff9ae80",
    ("teleport_branches", "phi+", 2):
        "0137a3f4a5abd910e4ca4d37e52a060c084aff5dfb9d5cf03703945c7e559471",
    ("teleport_branches", "phi+", 3):
        "4335ecae592a2917f1ecfd5192c68cecd9c9d9811d0a125bb48fcef00a253ce2",
    ("teleport_branches", "phi+", 4):
        "8e30bd8cea242627b389688d3bc0fb9e41c6d7357721ddadec9fa081f55ef4ca",
}


def input_state(n: int):
    xs, _, _ = protocol_labels(n)
    return random_state(xs, np.random.default_rng(100 + n))


def engine_sampled_run(xi, seed, resource: BellState):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(teleport, "corrections_from_message",
                  teleport.corrections_from_message.__wrapped__)
        [branch] = _walk(xi, resource, np.random.default_rng(seed))
        return _finish(xi, *branch, resource)


def transcripts(entry: str, resource: BellState, n: int) -> list:
    xi = input_state(n)
    if entry == "run_session":
        return [run_session(xi, seed, resource) for seed in SEEDS]
    if entry == "teleport_n":
        return [engine_sampled_run(xi, seed, resource) for seed in SEEDS]
    return teleport_branches(xi, resource)


def transcript_digest(entry: str, resource: str, n: int) -> str:
    ts = transcripts(entry, BellState(resource), n)
    text = json.dumps([t.to_dict() for t in ts], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_transcript_bytes_are_pinned(case):
    assert transcript_digest(*case) == GOLDEN[case]
