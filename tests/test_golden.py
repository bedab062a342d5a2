"""Golden reports: the sha256 of run_campaign's JSON for fixed configs.

Every CLI mode is pinned at fixed seeds and fixture inputs, so a change
to the engine, the oracle or the correction algebra that alters a
single byte of any report fails here. Regenerate a digest only for a
change that is meant to alter that report.
"""
from __future__ import annotations

import hashlib

import pytest

from teleportsim.cli import CampaignConfig, run_campaign

# (mode, n, input, trials, seed) -> sha256 of the report JSON.
GOLDEN = {
    ("sample", 1, "random", 64, 11):
        "2b24399459d70a1d3f3e5cd0ada3faee4eb07ef23f609468167b1de290bc118a",
    ("sample", 1, "zero", 64, 12):
        "aabe5ec5980493ef7cbd449dfe784dee13d580060c34c31918fa614f27553de2",
    ("sample", 2, "random", 64, 13):
        "9e05a17a1846aa6096b0ebda43e97130ec41da37269a0643ff32926306091364",
    ("sample", 2, "ghz", 64, 14):
        "c25dd0b86b095b2e7440f0464948cf48d46141c63a541580d2840765503aace1",
    ("sample", 3, "random", 48, 15):
        "efd03e90daab97022e180fc60a9e9114fd409b9acea6e4249493c743db50f26d",
    ("sample", 3, "uniform", 48, 16):
        "659d00010c02be716d4bc009b77b4658dd7ce0fcc72586896c2fcfda12e2ea89",
    ("sample", 4, "random", 32, 17):
        "af3126dafa2ab0422e84ced11215b239a7aed8b578683d225833731ccea5b854",
    ("sample", 4, "ghz", 32, 18):
        "6d406ef47ab3473c2421ce2df5d8959d836b5aeee0447187ff3fa07a7e298a33",
    ("sample", 5, "random", 16, 19):
        "8fbde3f7234315dfc779e7eace59805c39c507a6176ceb58650d7b3fd1877583",
    ("branches", 1, "random", 1, 21):
        "7e94ffa301c34389a91685ce4d9302e461eff5af7da3c844a8da02132b35e980",
    ("branches", 1, "uniform", 1, 22):
        "4cba4ebc0ae54dbfd383f7b2dc64f53cf5bd32513be0d5259990912f15a8e539",
    ("branches", 2, "random", 1, 23):
        "d54df9296bf910a1f56bbb6451a4ad7e372d5409eb3ce3d8360c1a9079a59828",
    ("branches", 2, "ghz", 1, 24):
        "7d1bd2f609064f55271cc0c1d8fb36f1bbb3abad6dbcade7bb5ea9abf51a3c88",
    ("branches", 3, "random", 1, 25):
        "428ac1cd066e4ff8aafb45e072d68ec48a173a4a84ca5059cdea5eb28cc6608d",
    ("branches", 3, "zero", 1, 26):
        "120ba3465b8289a62c0ca264b73e1c6d0874bbf1775de175e9e8358e9729bcc4",
    ("branches", 4, "random", 1, 27):
        "b5d2fc1f58096235bae5f5ba2b9c311f2bbf59f828f3b7df6136a9dd433df637",
    ("branches", 4, "ghz", 1, 28):
        "06b24f158604773ddbabe9ee6968a46b7de9f989fc8557bf77c7497fcf6509a7",
    ("branches", 5, "uniform", 1, 0):
        "cf0f506bc3a4ce4895b4898471b5ca240117aa801bac414901802b0da477ed98",
    ("derive-table", 1, "random", 1, 0):
        "3bf1a712dfb5302708acabcfb2c3af866c785c12197dece8757d2a5c119b44b7",
    ("derive-table", 2, "random", 1, 0):
        "93c41d6fd9b04ee4160656ab7cd1eb3678f9b3410700c2217cbb8a025dbb6c9e",
    ("derive-table", 3, "random", 1, 0):
        "f1fb2fa26b0fc78dceed9f6f60b4aab5fd593aa6eeb756e05a96e3416b964db3",
    ("derive-table", 4, "random", 1, 0):
        "b32c240dde11c147b2eca03c782e88cd3de9c6ea76cdfb188585dc8ca59a21ff",
    ("derive-table", 5, "random", 1, 0):
        "5a43c3bd0576a4f334081da302637f66a661a43c7bc52b03046a009aede82789",
    ("certify", 1, "random", 1, 0):
        "6100cd79000c23280d3181821cc056eb6eaa30faf4faf6ce5884c94f7faf7dc6",
    ("certify", 2, "random", 1, 0):
        "300f0f4cf0e29b34e90573896df3cd72349d05007c7825ad86ce26522ee1bd36",
    ("certify", 3, "random", 1, 0):
        "5d4d73e6347cf8db4953b400419ceef9e14dcb8934282ffac475517df2596672",
    ("certify", 4, "random", 1, 0):
        "786b701c426d71da28a8ea7a8212fb047998bd48313926a682a50dd0143cf253",
}


def report_digest(mode: str, n: int, input: str, trials: int, seed: int) -> str:
    cfg = CampaignConfig(n=n, trials=trials, seed=seed, mode=mode, input=input)
    return hashlib.sha256(run_campaign(cfg).to_json().encode()).hexdigest()


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_report_bytes_are_pinned(case):
    assert report_digest(*case) == GOLDEN[case]
